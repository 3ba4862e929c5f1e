package expr

import (
	"fmt"
	"path/filepath"

	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/maintain"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Traces replays the paper's worked examples on the Fig. 1 sample graph,
// printing the per-iteration tables of Figs. 2, 4, 5, 6, 7 and 8.
// Recomputed cells (the paper's grey cells) are marked with '*'.
func Traces(cfg *Config) error {
	out := cfg.out()
	g := gen.SampleGraph()

	printTrace := func(title string, rows [][]uint32, computed [][]uint32, initRow []uint32) {
		t := newTable(out, title)
		hdr := []interface{}{"iteration"}
		for v := 0; v < int(g.NumNodes()); v++ {
			hdr = append(hdr, fmt.Sprintf("v%d", v))
		}
		t.row(hdr...)
		if initRow != nil {
			cells := []interface{}{"init"}
			for _, c := range initRow {
				cells = append(cells, c)
			}
			t.row(cells...)
		}
		for i, row := range rows {
			marked := map[uint32]bool{}
			for _, v := range computed[i] {
				marked[v] = true
			}
			cells := []interface{}{i + 1}
			for v, c := range row {
				if marked[uint32(v)] {
					cells = append(cells, fmt.Sprintf("%d*", c))
				} else {
					cells = append(cells, c)
				}
			}
			t.row(cells...)
		}
		t.flush()
	}

	degrees := make([]uint32, g.NumNodes())
	for v := uint32(0); v < g.NumNodes(); v++ {
		degrees[v] = g.Degree(v)
	}

	type capture struct {
		rows     [][]uint32
		computed [][]uint32
	}
	rec := func(c *capture) semicore.Trace {
		return func(iter int, computed []uint32, core []uint32) {
			c.rows = append(c.rows, append([]uint32(nil), core...))
			c.computed = append(c.computed, append([]uint32(nil), computed...))
		}
	}

	var c2, c4, c5 capture
	if _, err := semicore.SemiCore(g, &semicore.Options{Trace: rec(&c2)}); err != nil {
		return err
	}
	printTrace("Fig. 2: SemiCore on the sample graph", c2.rows, c2.computed, degrees)
	if _, err := semicore.SemiCorePlus(g, &semicore.Options{Trace: rec(&c4)}); err != nil {
		return err
	}
	printTrace("Fig. 4: SemiCore+ on the sample graph", c4.rows, c4.computed, degrees)
	if _, err := semicore.SemiCoreStar(g, &semicore.Options{Trace: rec(&c5)}); err != nil {
		return err
	}
	printTrace("Fig. 5: SemiCore* on the sample graph", c5.rows, c5.computed, degrees)

	// Maintenance traces need a disk-backed session.
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	session := func() (*maintain.Session, error) {
		base := filepath.Join(dir, "sample-trace")
		if err := storage.WriteGraph(faultfs.OS, base, g, stats.NewIOCounter(0), false); err != nil {
			return nil, err
		}
		dg, err := dyngraph.Open(base, stats.NewIOCounter(cfg.BlockSize), dyngraph.Options{})
		if err != nil {
			return nil, err
		}
		return maintain.NewSession(dg, nil)
	}

	// Fig. 6: delete (v0, v1).
	s, err := session()
	if err != nil {
		return err
	}
	var c6 capture
	s.Trace = semicore.Trace(rec(&c6))
	if _, err := s.DeleteStar(0, 1); err != nil {
		return err
	}
	printTrace("Fig. 6: SemiDelete* after removing (v0,v1)", c6.rows, c6.computed, nil)

	// Fig. 7: SemiInsert of (v4, v6) on the post-deletion graph.
	var c7 capture
	s.Trace = semicore.Trace(rec(&c7))
	if _, err := s.InsertTwoPhase(4, 6); err != nil {
		return err
	}
	printTrace("Fig. 7: SemiInsert of (v4,v6) (iterations 1.1-1.3 then converge 2.1)", c7.rows, c7.computed, nil)

	// Fig. 8: SemiInsert* of the same edge on a fresh post-deletion state.
	s2, err := session()
	if err != nil {
		return err
	}
	if _, err := s2.DeleteStar(0, 1); err != nil {
		return err
	}
	var c8 capture
	s2.Trace = semicore.Trace(rec(&c8))
	if _, err := s2.InsertStar(4, 6); err != nil {
		return err
	}
	printTrace("Fig. 8: SemiInsert* of (v4,v6) (status-driven, one phase)", c8.rows, c8.computed, nil)

	fmt.Fprintln(out, "node computations — SemiCore: 36, SemiCore+: 23, SemiCore*: 11, SemiDelete*: 4, SemiInsert: 12, SemiInsert*: 5 (paper's Examples 4.1-5.3)")
	return nil
}
