package expr

import (
	"fmt"

	"kcore/internal/imcore"
	"kcore/internal/verify"
)

// Table1 regenerates Table I: for each dataset analogue it reports |V|,
// |E|, density and kmax, side by side with the original graph's row so
// the ~10^3 scale-down is explicit.
func Table1(cfg *Config) error {
	out := cfg.out()
	t := newTable(out, "Table I: Datasets (synthetic analogues vs paper)")
	t.row("dataset", "paper graph", "group", "|V|", "|E|", "density", "kmax",
		"paper |V|", "paper |E|", "paper kmax")
	for _, d := range append(cfg.datasets(0), cfg.datasets(1)...) {
		g := graphOf(d)
		res := imcore.Decompose(g, nil)
		kmax := verify.Kmax(res.Core)
		density := float64(g.NumEdges()) / float64(g.NumNodes())
		t.row(d.Name, d.Paper, d.Group,
			fmtCount(int64(g.NumNodes())), fmtCount(g.NumEdges()),
			fmt.Sprintf("%.2f", density), kmax,
			fmtCount(d.PaperV), fmtCount(d.PaperE), d.PaperKmax)
	}
	t.flush()
	return nil
}
