package expr

import (
	"fmt"
	"time"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
)

// maintRecord aggregates per-operation averages for one algorithm.
type maintRecord struct {
	Algo    string
	AvgTime time.Duration
	AvgIO   float64
	AvgComp float64
	Ops     int
}

// Fig10Small regenerates Fig. 10 (a), (c): core maintenance on the small
// graphs. Following the paper's protocol, a fixed set of random existing
// edges is deleted one by one (averaging SemiDelete*), then re-inserted
// one by one (averaging SemiInsert and SemiInsert*); the in-memory
// streaming baselines IMInsert/IMDelete run the same sequence.
func Fig10Small(cfg *Config) error {
	return fig10(cfg, gen.Small, true)
}

// Fig10Big regenerates Fig. 10 (b), (d): the big graphs, semi-external
// algorithms only.
func Fig10Big(cfg *Config) error {
	return fig10(cfg, gen.Big, false)
}

func fig10(cfg *Config, group gen.Group, withInMemory bool) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()
	title := "Fig. 10 (a,c): core maintenance, small graphs"
	if group == gen.Big {
		title = "Fig. 10 (b,d): core maintenance, big graphs"
	}
	t := newTable(out, title)
	t.row("dataset", "algorithm", "avg time", "avg I/O", "avg node comps")
	k := cfg.maintenanceEdges()
	for _, d := range cfg.datasets(group) {
		base, csr, err := materialise(dir, d)
		if err != nil {
			return err
		}
		edges := pickEdges(csr, k, 1000+int64(len(d.Name)))
		recs, err := cfg.maintenanceRun(base, edges)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if withInMemory {
			recs = append(recs, inMemoryMaintenance(csr, edges)...)
		}
		for _, r := range recs {
			t.row(d.Name, r.Algo, fmtDur(r.AvgTime), fmt.Sprintf("%.1f", r.AvgIO),
				fmt.Sprintf("%.1f", r.AvgComp))
		}
	}
	t.flush()
	fmt.Fprintln(out, "expected shape: SemiDelete* cheapest; SemiInsert* well below SemiInsert (no candidate flood).")
	return nil
}

// maintenanceRun executes the delete-then-reinsert protocol for the
// semi-external algorithms over the disk graph at base.
func (cfg *Config) maintenanceRun(base string, edges []graph.Edge) ([]maintRecord, error) {
	// Session A: SemiDelete* over the deletions, SemiInsert* over the
	// re-insertions.
	runStar := func() (maintRecord, maintRecord, error) {
		ctr := cfg.newCounter()
		g, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: 1 << 30})
		if err != nil {
			return maintRecord{}, maintRecord{}, err
		}
		defer g.Close()
		s, err := maintain.NewSession(g, nil)
		if err != nil {
			return maintRecord{}, maintRecord{}, err
		}
		del := maintRecord{Algo: "SemiDelete*"}
		for _, e := range edges {
			before := ctr.Snapshot()
			rs, err := s.DeleteStar(e.U, e.V)
			if err != nil {
				return del, del, err
			}
			del.AvgTime += rs.Duration
			del.AvgIO += float64(ctr.Snapshot().Sub(before).Total())
			del.AvgComp += float64(rs.NodeComputations)
			del.Ops++
		}
		ins := maintRecord{Algo: "SemiInsert*"}
		for _, e := range edges {
			before := ctr.Snapshot()
			rs, err := s.InsertStar(e.U, e.V)
			if err != nil {
				return del, ins, err
			}
			ins.AvgTime += rs.Duration
			ins.AvgIO += float64(ctr.Snapshot().Sub(before).Total())
			ins.AvgComp += float64(rs.NodeComputations)
			ins.Ops++
		}
		return del, ins, nil
	}
	// Session B: the two-phase SemiInsert over the same re-insertions
	// (deletions unrecorded, just to reach the same start state).
	runTwoPhase := func() (maintRecord, error) {
		ctr := cfg.newCounter()
		g, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: 1 << 30})
		if err != nil {
			return maintRecord{}, err
		}
		defer g.Close()
		s, err := maintain.NewSession(g, nil)
		if err != nil {
			return maintRecord{}, err
		}
		for _, e := range edges {
			if _, err := s.DeleteStar(e.U, e.V); err != nil {
				return maintRecord{}, err
			}
		}
		ins := maintRecord{Algo: "SemiInsert"}
		for _, e := range edges {
			before := ctr.Snapshot()
			rs, err := s.InsertTwoPhase(e.U, e.V)
			if err != nil {
				return ins, err
			}
			ins.AvgTime += rs.Duration
			ins.AvgIO += float64(ctr.Snapshot().Sub(before).Total())
			ins.AvgComp += float64(rs.NodeComputations)
			ins.Ops++
		}
		return ins, nil
	}

	del, insStar, err := runStar()
	if err != nil {
		return nil, err
	}
	ins2, err := runTwoPhase()
	if err != nil {
		return nil, err
	}
	recs := []maintRecord{ins2, insStar, del}
	for i := range recs {
		if recs[i].Ops > 0 {
			recs[i].AvgTime /= time.Duration(recs[i].Ops)
			recs[i].AvgIO /= float64(recs[i].Ops)
			recs[i].AvgComp /= float64(recs[i].Ops)
		}
	}
	return recs, nil
}

// inMemoryMaintenance runs IMDelete/IMInsert over the same edge sequence.
func inMemoryMaintenance(csr *memgraph.CSR, edges []graph.Edge) []maintRecord {
	m := imcore.NewMaintainer(imcore.NewDynGraph(csr))
	del := maintRecord{Algo: "IMDelete"}
	for _, e := range edges {
		st, err := m.Delete(e.U, e.V)
		if err != nil {
			continue
		}
		del.AvgTime += st.Duration
		del.AvgComp += float64(st.Visited)
		del.Ops++
	}
	ins := maintRecord{Algo: "IMInsert"}
	for _, e := range edges {
		st, err := m.Insert(e.U, e.V)
		if err != nil {
			continue
		}
		ins.AvgTime += st.Duration
		ins.AvgComp += float64(st.Visited)
		ins.Ops++
	}
	for _, r := range []*maintRecord{&del, &ins} {
		if r.Ops > 0 {
			r.AvgTime /= time.Duration(r.Ops)
			r.AvgComp /= float64(r.Ops)
		}
	}
	return []maintRecord{ins, del}
}
