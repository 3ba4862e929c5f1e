package expr

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"kcore"
	"kcore/internal/emcore"
	"kcore/internal/gen"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Ablation exercises the design choices docs/ARCHITECTURE.md calls out
// ("Deviations from the paper"), beyond the paper's own exhibits:
//
//  1. block size B: the I/O counts of a semi-external scan scale ~1/B
//     while the algorithm is unchanged — evidence the counter measures
//     the model, not the implementation;
//  2. EMCore memory budget: shrinking the budget cannot bound the peak
//     load (the paper's core critique, quantified);
//  3. update-buffer capacity: maintenance write I/O against compaction
//     frequency;
//  4. batch deletion vs one-by-one SemiDelete*.
func Ablation(cfg *Config) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()

	name := "lj-sim"
	if cfg.Quick {
		name = "dblp-sim"
	}
	d, err := gen.ByName(name)
	if err != nil {
		return err
	}
	csr := graphOf(d)
	base, err := materialise(dir, name, csr)
	if err != nil {
		return err
	}

	// 1. Block-size sweep.
	t := newTable(out, fmt.Sprintf("Ablation 1: block size B (%s, SemiCore*)", name))
	t.row("B", "read I/O", "read bytes", "time")
	for _, bs := range []int{1024, 4096, 65536} {
		c := *cfg
		c.BlockSize = bs
		r, err := c.decompose(kcore.SemiCoreStar, base, dir)
		if err != nil {
			return err
		}
		t.row(bs, fmtCount(r.Info.IO.Reads), fmtCount(r.Info.IO.ReadBytes), fmtDur(r.Info.Duration))
	}
	t.flush()

	// 2. EMCore budget sweep.
	t = newTable(out, fmt.Sprintf("Ablation 2: EMCore memory budget (%s)", name))
	t.row("budget (arcs)", "rounds", "peak loaded arcs", "blow-up", "write I/O")
	arcs := csr.NumArcs()
	for _, budget := range []int64{arcs / 16, arcs / 4, arcs, 2 * arcs} {
		ctr := stats.NewIOCounter(cfg.BlockSize)
		g, err := storage.Open(base, ctr, nil)
		if err != nil {
			return err
		}
		res, err := emcore.Decompose(g, emcore.Options{
			MemoryBudgetArcs: budget, TempDir: dir, IO: ctr,
		})
		g.Close()
		if err != nil {
			return err
		}
		blowup := float64(res.PeakLoadedArcs) / float64(budget)
		t.row(fmtCount(budget), res.Rounds, fmtCount(res.PeakLoadedArcs),
			fmt.Sprintf("%.2fx", blowup), fmtCount(ctr.Writes()))
	}
	t.flush()
	fmt.Fprintln(out, "the peak load refuses to track the budget — EMCore cannot bound memory (paper Section IV-A).")

	// 3. Update-buffer capacity vs compaction. A round's deletes fill the
	// buffer to two arcs each and its re-inserts cancel them: capacities
	// below that peak fold back mid-churn, and one that holds it never.
	edges := pickEdges(csr, cfg.maintenanceEdges(), 1500)
	t = newTable(out, fmt.Sprintf("Ablation 3: update buffer capacity (%s, 3 rounds of %d deletes and %d re-inserts)", name, len(edges), len(edges)))
	t.row("buffer (arcs)", "compactions", "write I/O", "total time")
	peak := 2 * len(edges)
	var folds, writes []int64
	for _, cap := range []int{peak / 4, peak / 2, peak, 1 << 30} {
		// Small-capacity runs compact mid-churn, rewriting the graph
		// files, and edits still buffered at Close are discarded — so
		// each configuration gets its own copy of the base.
		copyBase := fmt.Sprintf("%s-buf%d", base, cap)
		if err := storage.CopyGraph(copyBase, base, false); err != nil {
			return err
		}
		g, err := cfg.open(copyBase, cap)
		if err != nil {
			return err
		}
		m, err := kcore.NewMaintainer(g, nil)
		if err != nil {
			g.Close()
			return err
		}
		start := time.Now()
		for round := 0; round < 3; round++ {
			for _, e := range edges {
				if _, err := m.DeleteEdge(e.U, e.V); err != nil {
					g.Close()
					return err
				}
			}
			for _, e := range edges {
				if _, err := m.InsertEdge(e.U, e.V); err != nil {
					g.Close()
					return err
				}
			}
		}
		elapsed := time.Since(start)
		folds, writes = append(folds, g.FoldBacks()), append(writes, g.IOStats().Writes)
		t.row(fmtCount(int64(cap)), g.FoldBacks(), fmtCount(g.IOStats().Writes), fmtDur(elapsed))
		g.Close()
	}
	t.flush()
	fmt.Fprintln(out, "expected shape (checked): the smallest buffer folds back, the unbounded one never does, and write I/O does not rise with the capacity.")
	if err := errors.Join(
		shape(folds[0] > 0, "Ablation 3", "the smallest buffer folding back", folds[0]),
		shape(folds[len(folds)-1] == 0, "Ablation 3", "the unbounded buffer never folding back", folds[len(folds)-1]),
		shape(slices.IsSortedFunc(writes, func(a, b int64) int { return cmp.Compare(b, a) }), "Ablation 3", "write I/O not rising with the capacity", writes),
	); err != nil {
		return err
	}

	// 4. Batch deletion vs sequential.
	t = newTable(out, fmt.Sprintf("Ablation 4: batch vs sequential deletion (%s, %d edges)", name, len(edges)))
	t.row("strategy", "node comps", "read I/O", "time")
	for _, strategy := range []string{"sequential", "batch"} {
		comps, reads, elapsed, err := cfg.deleteRun(base, edges, strategy == "batch")
		if err != nil {
			return err
		}
		t.row(strategy, comps, fmtCount(reads), fmtDur(elapsed))
	}
	t.flush()
	return nil
}

// deleteRun deletes edges from a fresh Maintainer over base, one by one
// (SemiDelete*) or as one batch, and returns the deletions' node
// computations, block reads and wall time.
func (cfg *Config) deleteRun(base string, edges []kcore.Edge, batch bool) (comps, reads int64, elapsed time.Duration, err error) {
	g, err := cfg.open(base, 1<<30)
	if err != nil {
		return 0, 0, 0, err
	}
	defer g.Close()
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	before, start := g.IOStats(), time.Now()
	if batch {
		ri, err := m.DeleteEdges(edges)
		return ri.NodeComputations, g.IOStats().Sub(before).Reads, time.Since(start), err
	}
	for _, e := range edges {
		ri, err := m.DeleteEdge(e.U, e.V)
		if err != nil {
			return 0, 0, 0, err
		}
		comps += ri.NodeComputations
	}
	return comps, g.IOStats().Sub(before).Reads, time.Since(start), nil
}
