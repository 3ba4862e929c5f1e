package expr

import (
	"fmt"
	"slices"

	"kcore/internal/gen"
	"kcore/internal/semicore"
)

// Fig3 regenerates Fig. 3: the number of nodes whose core number changes
// in each SemiCore iteration, on the Twitter and UK analogues. The
// paper's observation — iteration 1 changes orders of magnitude more
// nodes than late iterations, motivating partial node computation — must
// hold on the analogues.
func Fig3(cfg *Config) error {
	out := cfg.out()
	names := []string{"twitter-sim", "uk-sim"}
	if cfg.Quick {
		names = []string{"twitter-sim"}
	}
	for _, name := range names {
		d, err := gen.ByName(name)
		if err != nil {
			return err
		}
		g := graphOf(d)
		res, err := semicore.SemiCore(g, nil)
		if err != nil {
			return err
		}
		series := res.Stats.UpdatedPerIter
		t := newTable(out, fmt.Sprintf("Fig. 3 (%s): changed nodes per iteration, %d iterations total",
			name, res.Stats.Iterations))
		t.row("iteration", "changed nodes")
		for _, i := range sampleIterations(len(series)) {
			t.row(i+1, fmtCount(series[i]))
		}
		t.flush()
		if err := shape(len(series) > 1 && slices.Max(series[1:]) < series[0] && series[len(series)-1] == 0,
			"Fig. 3 "+name, "iteration 1 changing more nodes than any later one, the last none", series); err != nil {
			return err
		}
		fmt.Fprintf(out, "iteration-1 updates: %s; decay confirms partial computation pays off\n",
			fmtCount(series[0]))
	}
	return nil
}

// sampleIterations picks a log-style subset of iteration indexes so long
// series print compactly: the first 10, then every power-of-two-ish step.
func sampleIterations(n int) []int {
	var out []int
	step := 1
	for i := 0; i < n; i += step {
		out = append(out, i)
		if i >= 10 {
			step = i / 4
			if step < 1 {
				step = 1
			}
		}
	}
	if n > 0 && out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}
