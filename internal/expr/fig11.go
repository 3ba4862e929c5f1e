package expr

import (
	"fmt"

	"kcore/internal/gen"
	"kcore/internal/memgraph"
)

// scaleFractions returns the sampling sweep (the paper uses 20%..100%).
func (c *Config) scaleFractions() []float64 {
	if c.Quick {
		return []float64{0.2, 0.6, 1.0}
	}
	return []float64{0.2, 0.4, 0.6, 0.8, 1.0}
}

// scaleDatasets returns the graphs used for the scalability study
// (Twitter and UK in the paper).
func (c *Config) scaleDatasets() []string {
	if c.Quick {
		return []string{"twitter-sim"}
	}
	return []string{"twitter-sim", "uk-sim"}
}

// Fig11 regenerates Fig. 11: decomposition scalability. For each base
// graph it samples |V| (induced subgraph) and |E| (incident nodes kept)
// from 20% to 100% and times the three semi-external algorithms on disk.
func Fig11(cfg *Config) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()
	for _, name := range cfg.scaleDatasets() {
		d, err := gen.ByName(name)
		if err != nil {
			return err
		}
		full := graphOf(d)
		for _, mode := range []string{"V", "E"} {
			t := newTable(out, fmt.Sprintf("Fig. 11: vary |%s| (%s)", mode, name))
			t.row("fraction", "|V|", "|E|", "SemiCore*", "SemiCore+", "SemiCore")
			var gap, widest int64
			for _, frac := range cfg.scaleFractions() {
				sub, err := sampleGraph(full, mode, frac)
				if err != nil {
					return err
				}
				at := fmt.Sprintf("%s-%s-%02.0f", name, mode, frac*100)
				base, err := materialise(dir, at, sub)
				if err != nil {
					return err
				}
				recs, err := cfg.decomposeAll(base, dir, semiAlgos...)
				if err != nil {
					return err
				}
				t.row(fmt.Sprintf("%.0f%%", frac*100), fmtCount(int64(sub.NumNodes())), fmtCount(sub.NumEdges()),
					fmtDur(recs[0].Info.Duration), fmtDur(recs[1].Info.Duration), fmtDur(recs[2].Info.Duration))
				// The gap is SemiCore's reads minus SemiCore*'s; a sample
				// that fits the frames reads each block once under all three.
				s, p, b, prev := recs[0].Info.IO.Reads, recs[1].Info.IO.Reads, recs[2].Info.IO.Reads, gap
				gap, widest = b-s, max(widest, b-s)
				if err := shape((gap > 0 || s == p && p == b) && (mode == "V" || gap >= prev), "Fig. 11 "+at,
					"SemiCore* reading fewer blocks than SemiCore unless all three tie, and over |E| a gap no narrower than the last", s, p, b, prev); err != nil {
					return err
				}
			}
			if err := shape(gap == widest, fmt.Sprintf("Fig. 11 %s |%s|", name, mode), "the full graph's gap the widest of the sweep", gap, widest); err != nil {
				return err
			}
			t.flush()
		}
	}
	fmt.Fprintln(out, "expected shape (checked): SemiCore* reads fewer blocks than SemiCore at every fraction unless the sample fits the frames (all three tie);",
		"the gap in blocks never narrows as |E| grows and is widest at the full graph of either sweep.")
	return nil
}

// sampleGraph dispatches the paper's two sampling modes.
func sampleGraph(g *memgraph.CSR, mode string, frac float64) (*memgraph.CSR, error) {
	if frac >= 1.0 {
		return g, nil
	}
	if mode == "V" {
		return memgraph.SampleNodes(g, frac, 2016)
	}
	return memgraph.SampleEdges(g, frac, 2016)
}
