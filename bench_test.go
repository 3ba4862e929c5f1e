// Benchmarks regenerating each table and figure of the paper's evaluation
// (Section VI). Each bench family corresponds to one exhibit:
//
//	BenchmarkTable1Datasets    Table I   (dataset statistics workload)
//	BenchmarkFig3ChangedNodes  Fig. 3    (SemiCore convergence profile)
//	BenchmarkFig9DecompSmall   Fig. 9ace (decomposition, small graphs, all 5 algorithms)
//	BenchmarkFig9DecompBig     Fig. 9bdf (decomposition, big graphs, semi-external)
//	BenchmarkFig10MaintSmall   Fig. 10ac (maintenance ops, small graphs, + in-memory baselines)
//	BenchmarkFig10MaintBig     Fig. 10bd (maintenance ops, big graphs)
//	BenchmarkFig11ScaleDecomp  Fig. 11   (decomposition scalability sweeps)
//	BenchmarkFig12ScaleMaint   Fig. 12   (maintenance scalability sweeps)
//	BenchmarkTracesFigs2to8    Figs. 2-8 (worked-example traces)
//
// Absolute numbers differ from the paper (synthetic analogues, different
// hardware); the shapes — algorithm orderings and gaps — are the
// reproduction target. `go run ./cmd/experiments` prints every exhibit
// from internal/expr's runners; the benchmarks here re-implement each
// figure's set-up through the public API instead of calling them.
package kcore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/emcore"
	"kcore/internal/gen"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// benchCache materialises each dataset at most once per bench process.
var benchCache struct {
	sync.Mutex
	dir  string
	csr  map[string]*memgraph.CSR
	base map[string]string
}

func benchGraph(tb testing.TB, name string) (string, *memgraph.CSR) {
	benchCache.Lock()
	defer benchCache.Unlock()
	if benchCache.csr == nil {
		dir, err := os.MkdirTemp("", "kcore-bench")
		if err != nil {
			tb.Fatal(err)
		}
		benchCache.dir = dir
		benchCache.csr = map[string]*memgraph.CSR{}
		benchCache.base = map[string]string{}
	}
	if base, ok := benchCache.base[name]; ok {
		return base, benchCache.csr[name]
	}
	d, err := gen.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	csr := d.Graph()
	base := filepath.Join(benchCache.dir, name)
	if err := graphio.WriteCSR(base, csr, nil); err != nil {
		tb.Fatal(err)
	}
	benchCache.csr[name] = csr
	benchCache.base[name] = base
	return base, csr
}

func benchCSRBase(tb testing.TB, name string, csr *memgraph.CSR) string {
	benchCache.Lock()
	defer benchCache.Unlock()
	base := filepath.Join(benchCache.dir, name)
	if _, err := os.Stat(base + ".meta"); err == nil {
		return base
	}
	if err := graphio.WriteCSR(base, csr, nil); err != nil {
		tb.Fatal(err)
	}
	return base
}

// smallBench is the small-graph group used by the per-table benches; the
// full set runs via cmd/experiments.
var smallBench = []string{"dblp-sim", "youtube-sim", "wiki-sim", "cpt-sim", "lj-sim", "orkut-sim"}

// bigBench trades the two largest graphs' SemiCore runs for bench-suite
// runtime; cmd/experiments fig9big covers all six.
var bigBench = []string{"webbase-sim", "it-sim", "twitter-sim"}

// BenchmarkTable1Datasets regenerates the Table I statistics workload:
// full in-memory decomposition giving |V|, |E|, density and kmax.
func BenchmarkTable1Datasets(b *testing.B) {
	for _, name := range smallBench {
		name := name
		b.Run(name, func(b *testing.B) {
			_, csr := benchGraph(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := imcore.Decompose(csr, nil)
				if len(res.Core) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkFig3ChangedNodes regenerates the Fig. 3 series: one full
// SemiCore run recording per-iteration core-number updates.
func BenchmarkFig3ChangedNodes(b *testing.B) {
	for _, name := range []string{"twitter-sim", "uk-sim"} {
		name := name
		b.Run(name, func(b *testing.B) {
			_, csr := benchGraph(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := semicore.SemiCore(csr, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Stats.UpdatedPerIter) == 0 {
					b.Fatal("no series")
				}
			}
		})
	}
}

func benchSemiDisk(b *testing.B, base string, algo kcore.Algorithm) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g, err := kcore.Open(base, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo})
		g.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Kmax == 0 {
			b.Fatal("kmax 0")
		}
	}
}

// BenchmarkFig9DecompSmall regenerates Fig. 9 (a,c,e): all five
// algorithms on the small graphs, disk-backed where the paper is.
func BenchmarkFig9DecompSmall(b *testing.B) {
	for _, name := range smallBench {
		name := name
		base, csr := benchGraph(b, name)
		for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic} {
			algo := algo
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				benchSemiDisk(b, base, algo)
			})
		}
		b.Run(fmt.Sprintf("%s/EMCore", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr := stats.NewIOCounter(0)
				sg, err := storage.Open(base, ctr, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, err = emcore.Decompose(sg, emcore.Options{TempDir: b.TempDir()})
				sg.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/IMCore", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				imcore.Decompose(csr, nil)
			}
		})
	}
}

// BenchmarkFig9DecompBig regenerates Fig. 9 (b,d,f): the semi-external
// family on (a runtime-bounded subset of) the big graphs.
func BenchmarkFig9DecompBig(b *testing.B) {
	for _, name := range bigBench {
		name := name
		base, _ := benchGraph(b, name)
		for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic} {
			algo := algo
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				benchSemiDisk(b, base, algo)
			})
		}
	}
}

// maintCycle benchmarks one delete + re-insert of a fixed edge through a
// prepared session — the unit operation behind Fig. 10's averages.
func maintCycle(b *testing.B, name string, insert func(*maintain.Session, uint32, uint32) error) {
	b.Helper()
	base, csr := benchGraph(b, name)
	ctr := stats.NewIOCounter(0)
	dg, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer dg.Close()
	s, err := maintain.NewSession(dg, nil)
	if err != nil {
		b.Fatal(err)
	}
	edges := csr.EdgeList()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if _, err := s.DeleteStar(e.U, e.V); err != nil {
			b.Fatal(err)
		}
		if err := insert(s, e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
}

func insertStar(s *maintain.Session, u, v uint32) error {
	_, err := s.InsertStar(u, v)
	return err
}

func insertTwoPhase(s *maintain.Session, u, v uint32) error {
	_, err := s.InsertTwoPhase(u, v)
	return err
}

// BenchmarkFig10MaintSmall regenerates Fig. 10 (a,c): per-operation
// maintenance cost on the small graphs, semi-external variants plus the
// in-memory traversal baselines.
func BenchmarkFig10MaintSmall(b *testing.B) {
	for _, name := range smallBench {
		name := name
		b.Run(name+"/SemiInsert*+Delete*", func(b *testing.B) {
			maintCycle(b, name, insertStar)
		})
		b.Run(name+"/SemiInsert+Delete*", func(b *testing.B) {
			maintCycle(b, name, insertTwoPhase)
		})
		b.Run(name+"/IMInsert+IMDelete", func(b *testing.B) {
			_, csr := benchGraph(b, name)
			m := imcore.NewMaintainer(imcore.NewDynGraph(csr))
			edges := csr.EdgeList()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				if _, err := m.Delete(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Insert(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10MaintBig regenerates Fig. 10 (b,d): the big graphs,
// semi-external only.
func BenchmarkFig10MaintBig(b *testing.B) {
	for _, name := range bigBench {
		name := name
		b.Run(name+"/SemiInsert*+Delete*", func(b *testing.B) {
			maintCycle(b, name, insertStar)
		})
		b.Run(name+"/SemiInsert+Delete*", func(b *testing.B) {
			maintCycle(b, name, insertTwoPhase)
		})
	}
}

// BenchmarkFig11ScaleDecomp regenerates Fig. 11: SemiCore* and SemiCore
// over the node- and edge-sampled Twitter analogue.
func BenchmarkFig11ScaleDecomp(b *testing.B) {
	_, full := benchGraph(b, "twitter-sim")
	for _, mode := range []string{"V", "E"} {
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			mode, frac := mode, frac
			sub := full
			var err error
			if frac < 1.0 {
				if mode == "V" {
					sub, err = memgraph.SampleNodes(full, frac, 2016)
				} else {
					sub, err = memgraph.SampleEdges(full, frac, 2016)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			base := benchCSRBase(b, fmt.Sprintf("fig11-%s-%.0f", mode, frac*100), sub)
			for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCoreBasic} {
				algo := algo
				b.Run(fmt.Sprintf("vary%s/%.0f%%/%s", mode, frac*100, algo), func(b *testing.B) {
					benchSemiDisk(b, base, algo)
				})
			}
		}
	}
}

// BenchmarkFig12ScaleMaint regenerates Fig. 12: the maintenance cycle on
// the same sampled graphs.
func BenchmarkFig12ScaleMaint(b *testing.B) {
	_, full := benchGraph(b, "twitter-sim")
	for _, frac := range []float64{0.2, 0.6, 1.0} {
		frac := frac
		sub := full
		var err error
		if frac < 1.0 {
			if sub, err = memgraph.SampleNodes(full, frac, 2016); err != nil {
				b.Fatal(err)
			}
		}
		name := fmt.Sprintf("fig12-V-%.0f", frac*100)
		base := benchCSRBase(b, name, sub)
		b.Run(fmt.Sprintf("varyV/%.0f%%", frac*100), func(b *testing.B) {
			ctr := stats.NewIOCounter(0)
			dg, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer dg.Close()
			s, err := maintain.NewSession(dg, nil)
			if err != nil {
				b.Fatal(err)
			}
			edges := sub.EdgeList()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				if _, err := s.DeleteStar(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if _, err := s.InsertStar(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracesFigs2to8 regenerates the worked examples: the full
// decomposition + delete + insert trace sequence on the Fig. 1 graph.
func BenchmarkTracesFigs2to8(b *testing.B) {
	g := gen.SampleGraph()
	for i := 0; i < b.N; i++ {
		if _, err := semicore.SemiCore(g, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := semicore.SemiCorePlus(g, nil); err != nil {
			b.Fatal(err)
		}
		res, err := semicore.SemiCoreStar(g, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.NodeComputations != 11 {
			b.Fatalf("SemiCore* computations = %d, want 11", res.Stats.NodeComputations)
		}
	}
}
