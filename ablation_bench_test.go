// Ablation benchmarks for the design choices docs/ARCHITECTURE.md calls
// out ("Deviations from the paper"), complementing the per-figure suite
// in bench_test.go. Run with `go test -bench=Ablation -benchmem`.
package kcore_test

import (
	"fmt"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/emcore"
	"kcore/internal/graph"
	"kcore/internal/maintain"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// BenchmarkAblationBlockSize measures SemiCore* under different I/O
// accounting block sizes: the algorithm is unchanged, so per-op time
// shifts only with buffer mechanics while the counted I/Os scale ~1/B.
func BenchmarkAblationBlockSize(b *testing.B) {
	base, _ := benchGraph(b, "lj-sim")
	for _, bs := range []int{1024, 4096, 65536} {
		bs := bs
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				ctr := stats.NewIOCounter(bs)
				g, err := storage.Open(base, ctr, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := semicore.SemiCoreStar(g, nil); err != nil {
					b.Fatal(err)
				}
				g.Close()
				reads = ctr.Reads()
			}
			b.ReportMetric(float64(reads), "readIOs")
		})
	}
}

// BenchmarkAblationEMCoreBudget measures EMCore as its memory budget
// shrinks: rounds multiply and write I/O grows, but the peak load does
// not obey the budget — the paper's critique, as a benchmark.
func BenchmarkAblationEMCoreBudget(b *testing.B) {
	base, csr := benchGraph(b, "lj-sim")
	arcs := csr.NumArcs()
	for _, div := range []int64{16, 4, 1} {
		budget := arcs / div
		b.Run(fmt.Sprintf("budget=arcs_div_%d", div), func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				ctr := stats.NewIOCounter(0)
				g, err := storage.Open(base, ctr, nil)
				if err != nil {
					b.Fatal(err)
				}
				res, err := emcore.Decompose(g, emcore.Options{
					MemoryBudgetArcs: budget,
					TempDir:          b.TempDir(),
					IO:               ctr,
				})
				g.Close()
				if err != nil {
					b.Fatal(err)
				}
				peak = res.PeakLoadedArcs
			}
			b.ReportMetric(float64(peak)/float64(budget), "peak/budget")
		})
	}
}

// BenchmarkAblationBatchDelete compares deleting (and restoring) a batch
// of edges one by one against the single-converge batch extension.
func BenchmarkAblationBatchDelete(b *testing.B) {
	base, csr := benchGraph(b, "lj-sim")
	edges := csr.EdgeList()[:50]
	setup := func(b *testing.B) *maintain.Session {
		b.Helper()
		g, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{BufferArcs: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { g.Close() })
		s, err := maintain.NewSession(g, nil)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("sequential", func(b *testing.B) {
		s := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range edges {
				if _, err := s.DeleteStar(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
			restore(b, s, edges)
		}
	})
	b.Run("batch", func(b *testing.B) {
		s := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.BatchDelete(edges); err != nil {
				b.Fatal(err)
			}
			restore(b, s, edges)
		}
	})
}

func restore(b *testing.B, s *maintain.Session, edges []graph.Edge) {
	b.Helper()
	b.StopTimer()
	for _, e := range edges {
		if _, err := s.InsertStar(e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
}
