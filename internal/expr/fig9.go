package expr

import (
	"errors"
	"fmt"
	"slices"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/stats"
)

// Fig9Small regenerates Fig. 9 (a), (c), (e): core decomposition on the
// small-graph group, comparing the three semi-external variants against
// EMCore and IMCore on wall-clock time, model memory and block I/O.
func Fig9Small(cfg *Config) error {
	return fig9(cfg, gen.Small, kcore.EMCore, kcore.IMCore)
}

// Fig9Big regenerates Fig. 9 (b), (d), (f): the big-graph group, where
// only the semi-external algorithms are feasible (the paper runs nothing
// else at this scale).
func Fig9Big(cfg *Config) error {
	return fig9(cfg, gen.Big)
}

func fig9(cfg *Config, group gen.Group, baselines ...kcore.Algorithm) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()
	title := "Fig. 9 (a,c,e): core decomposition, small graphs"
	if group == gen.Big {
		title = "Fig. 9 (b,d,f): core decomposition, big graphs (semi-external only)"
	}
	t := newTable(out, title)
	t.row("dataset", "algorithm", "time", "memory", "read I/O", "write I/O", "iters", "node comps")
	for _, d := range cfg.datasets(group) {
		base, err := materialise(dir, d.Name, graphOf(d))
		if err != nil {
			return err
		}
		recs, err := cfg.decomposeAll(base, dir, slices.Concat(semiAlgos, baselines)...)
		if err != nil {
			return err
		}
		for _, r := range recs {
			i := r.Info
			t.row(d.Name, r.Algo, fmtDur(i.Duration), stats.FormatBytes(i.MemPeakBytes),
				fmtCount(i.IO.Reads), fmtCount(i.IO.Writes), i.Iterations, fmtCount(i.NodeComputations))
		}
		if err := checkFig9("Fig. 9 "+d.Name, recs); err != nil {
			return err
		}
	}
	t.flush()
	fmt.Fprint(out, "expected shape (checked): SemiCore* <= SemiCore+ <= SemiCore in read I/O and < in node comps; the semi family writes nothing")
	if len(baselines) > 0 {
		fmt.Fprint(out, "; EMCore writes, and EMCore and IMCore model more memory than every semi variant")
	}
	fmt.Fprintln(out, ".")
	return nil
}

// checkFig9 holds one dataset's rows to Fig. 9: recs is SemiCore*,
// SemiCore+ and SemiCore, then EMCore and IMCore when the group runs them.
func checkFig9(at string, recs []record) error {
	s, p, b := recs[0].Info, recs[1].Info, recs[2].Info
	err := errors.Join(
		shape(ascending(false, s.IO.Reads, p.IO.Reads, b.IO.Reads), at, "read I/O SemiCore* <= SemiCore+ <= SemiCore", s.IO.Reads, p.IO.Reads, b.IO.Reads),
		shape(ascending(true, s.NodeComputations, p.NodeComputations, b.NodeComputations), at, "node comps SemiCore* < SemiCore+ < SemiCore", s.NodeComputations, p.NodeComputations, b.NodeComputations),
		shape(s.IO.Writes+p.IO.Writes+b.IO.Writes == 0, at, "no semi-external write I/O", s.IO.Writes, p.IO.Writes, b.IO.Writes))
	if len(recs) == 5 {
		em, im, semiMem := recs[3].Info, recs[4].Info, max(s.MemPeakBytes, p.MemPeakBytes, b.MemPeakBytes)
		err = errors.Join(err,
			shape(em.IO.Writes > 0, at, "EMCore write I/O > 0", em.IO.Writes),
			shape(min(em.MemPeakBytes, im.MemPeakBytes) > semiMem, at, "EMCore and IMCore memory above every semi variant's", em.MemPeakBytes, im.MemPeakBytes, semiMem))
	}
	return err
}
