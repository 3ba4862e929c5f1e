package expr

import (
	"errors"
	"fmt"
	"time"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/imcore"
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

// add records one operation; average turns the sums into means.
func (r *maintRecord) add(d time.Duration, io, comps int64) {
	r.AvgTime += d
	r.AvgIO += float64(io)
	r.AvgComp += float64(comps)
	r.Ops++
}

func (r *maintRecord) average() {
	if r.Ops > 0 {
		r.AvgTime /= time.Duration(r.Ops)
		r.AvgIO /= float64(r.Ops)
		r.AvgComp /= float64(r.Ops)
	}
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
		csr := graphOf(d)
		base, err := materialise(dir, d.Name, csr)
		if err != nil {
			return err
		}
		edges := pickEdges(csr, k, 1000+int64(len(d.Name)))
		recs, err := cfg.maintenanceRun(base, edges)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if withInMemory {
			im, err := inMemoryMaintenance(csr, edges)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name, err)
			}
			recs = append(recs, im...)
		}
		for _, r := range recs {
			t.row(d.Name, r.Algo, fmtDur(r.AvgTime), fmt.Sprintf("%.1f", r.AvgIO),
				fmt.Sprintf("%.1f", r.AvgComp))
		}
		if err := checkMaintenance("Fig. 10 "+d.Name, recs, len(edges)); err != nil {
			return err
		}
	}
	t.flush()
	fmt.Fprintln(out, maintenanceShape)
	return nil
}

// maintenanceShape states what checkMaintenance holds Figs. 10 and 12 to.
const maintenanceShape = "expected shape (checked): per update, node comps SemiDelete* < SemiInsert* < SemiInsert and I/O <= in the same order; every operation completes."

// checkMaintenance holds one maintenance run to Figs. 10 and 12: recs
// starts with maintenanceRun's SemiInsert, SemiInsert*, SemiDelete*, and
// every record averages all ops operations.
func checkMaintenance(at string, recs []maintRecord, ops int) error {
	ins, star, del := recs[0], recs[1], recs[2]
	err := errors.Join(
		shape(ascending(true, del.AvgComp, star.AvgComp, ins.AvgComp), at, "node comps per update SemiDelete* < SemiInsert* < SemiInsert", del.AvgComp, star.AvgComp, ins.AvgComp),
		shape(ascending(false, del.AvgIO, star.AvgIO, ins.AvgIO), at, "I/O per update SemiDelete* <= SemiInsert* <= SemiInsert", del.AvgIO, star.AvgIO, ins.AvgIO))
	for _, r := range recs {
		err = errors.Join(err, shape(r.Ops == ops, at, r.Algo+" completing every operation", r.Ops, ops))
	}
	return err
}

// maintenanceRun executes the delete-then-reinsert protocol for the
// semi-external algorithms over the disk graph at base, one session per
// insertion algorithm: SemiDelete* then SemiInsert*, and SemiDelete*
// again (unrecorded, to reach the same start state) then SemiInsert.
func (cfg *Config) maintenanceRun(base string, edges []kcore.Edge) ([]maintRecord, error) {
	recs := []maintRecord{{Algo: "SemiInsert"}, {Algo: "SemiInsert*"}, {Algo: "SemiDelete*"}}
	if err := cfg.maintenanceSession(base, edges, &recs[2], &recs[1], kcore.SemiInsertStar); err != nil {
		return nil, err
	}
	if err := cfg.maintenanceSession(base, edges, &maintRecord{}, &recs[0], kcore.SemiInsertTwoPhase); err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].average()
	}
	return recs, nil
}

// maintenanceSession deletes edges one by one with SemiDelete* on a fresh
// Maintainer over base, then re-inserts them with insert, recording each
// operation's time, block I/O and node computations in del and ins.
func (cfg *Config) maintenanceSession(base string, edges []kcore.Edge, del, ins *maintRecord, insert kcore.InsertAlgorithm) error {
	g, err := cfg.open(base, 1<<30)
	if err != nil {
		return err
	}
	defer g.Close()
	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{Insert: insert})
	if err != nil {
		return err
	}
	run := func(r *maintRecord, op func(u, v uint32) (kcore.RunInfo, error)) error {
		for _, e := range edges {
			ri, err := op(e.U, e.V)
			if err != nil {
				return err
			}
			r.add(ri.Duration, ri.IO.Total(), ri.NodeComputations)
		}
		return nil
	}
	if err := run(del, m.DeleteEdge); err != nil {
		return err
	}
	return run(ins, m.InsertEdge)
}

// inMemoryMaintenance runs IMDelete/IMInsert over the same edge sequence.
func inMemoryMaintenance(csr *memgraph.CSR, edges []kcore.Edge) ([]maintRecord, error) {
	m := imcore.NewMaintainer(imcore.NewDynGraph(csr))
	run := func(algo string, op func(u, v uint32) (imcore.MaintStats, error)) (maintRecord, error) {
		r := maintRecord{Algo: algo}
		for _, e := range edges {
			st, err := op(e.U, e.V)
			if err != nil {
				return r, err
			}
			r.add(st.Duration, 0, st.Visited)
		}
		r.average()
		return r, nil
	}
	del, err := run("IMDelete", m.Delete)
	if err != nil {
		return nil, err
	}
	ins, err := run("IMInsert", m.Insert)
	return []maintRecord{ins, del}, err
}
