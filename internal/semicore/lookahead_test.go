package semicore_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/verify"
)

func TestMain(m *testing.M) { pins.Main(m) }

// starOnDisk decomposes the on-disk graph at base with SemiCore* under
// either recompute rule through a cache of the given frames
// (storage.Open, its reads at open left out) and returns the result
// with the block reads it cost (1 KiB blocks, so the small fixtures still
// span many blocks). SemiCore* recomputes resident nodes behind its cursor
// at once unless passOnly hides the cache from it.
func starOnDisk(t *testing.T, base string, paperRule bool, frames int, passOnly bool) (*semicore.Result, int64) {
	t.Helper()
	ctr := stats.NewIOCounter(1024)
	g, err := storage.Open(base, ctr, storage.NewBlockCache(frames, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var src graph.Source = g
	if passOnly {
		src = struct{ graph.Source }{g} // no Resident: the printed pass schedule
	}
	opened := ctr.Reads()
	run := semicore.SemiCoreStar
	if paperRule {
		run = semicore.SemiCoreStarPaperRule
	}
	res, err := run(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctr.Reads() - opened
}

// fixture is one generator family's graph at one seed, on disk twice:
// in id order (a CSR through storage.WriteGraph) and as graphio.Build
// writes it, with the oracle's cores and Eq. 2 counters. Build lays every
// family out in a peeling order but the ring lattices, whose ids are
// local: it keeps those in id order, and then peel is empty.
type fixture struct {
	fam       string
	ids, peel string // the two tables' path prefixes
	core      []uint32
	cnt       []int32
	pinned    bool // the default seeds, which pins are taken at
}

// forEachFixture builds every family of testutil.Families at three seeds
// from the test's seed and calls check with each fixture.
func forEachFixture(t *testing.T, check func(t *testing.T, fx fixture)) {
	seed := testutil.Seed(t, 1)
	for _, fam := range testutil.Families {
		for i := int64(0); i < 3; i++ {
			fam, s := fam, seed+i
			t.Run(fmt.Sprintf("%s/seed=%d", fam.Name, s), func(t *testing.T) {
				edges := fam.Edges(s)
				csr := gen.Build(edges)
				peel := filepath.Join(t.TempDir(), "g")
				err := graphio.Build(peel, graphio.SliceSource(edges), graphio.BuildOptions{N: csr.NumNodes()})
				if err != nil {
					t.Fatal(err)
				}
				if m, err := storage.ReadMeta(peel); err != nil {
					t.Fatal(err)
				} else if m.IDOrder {
					peel = ""
				}
				core := imcore.Decompose(csr, nil).Core
				check(t, fixture{fam.Name, testutil.WriteCSR(t, csr), peel, core, verify.CntFor(csr, core), seed == 1})
			})
		}
	}
}

// matchOracle fails unless every result holds the oracle's cores and
// counters exactly.
func matchOracle(t *testing.T, core []uint32, cnt []int32, results ...*semicore.Result) {
	t.Helper()
	for _, res := range results {
		for v := range core {
			if res.Core[v] != core[v] {
				t.Fatalf("core(%d) = %d, imcore says %d", v, res.Core[v], core[v])
			}
			if res.Cnt[v] != cnt[v] {
				t.Fatalf("cnt(%d) = %d, want %d", v, res.Cnt[v], cnt[v])
			}
		}
	}
}

// TestLookaheadMatchesOracleAndNeverReadsMore runs SemiCore* with the
// violation lookahead and with the paper's rule, both on the printed pass
// schedule, over the block-counted disk tables of every generator family
// in both layouts, through 8 frames: every table the test opens, in
// either layout, is larger than those frames, and at least as many times
// them as its 4-byte table was the 64 frames the test read through
// before (through 64 the RMAT tables, a third of their old size, nearly
// fit, and both rules read each block once; through 16 the web table of
// seed 1 fits, 16,334 bytes, and both rules read each block once). Both
// rules must land on the oracle's cores with exact counters.
//
// In id order (WriteCSR) the lookahead must never pay more block reads
// than the rule it replaces, and on the skewed RMAT strictly fewer reads
// and node computations. On Build's peeling order both rules converge in
// one pass (ARCHITECTURE, "One pass along a peeling order"): each
// computes every node once and reads every block once, so there they
// must both take one pass and read the same (Build keeps the ring
// lattices in id order, so they have no such leg). At the default seeds
// the counts are pinned, each with the first use's pass over the node
// table.
func TestLookaheadMatchesOracleAndNeverReadsMore(t *testing.T) {
	const frames = 8
	forEachFixture(t, func(t *testing.T, fx fixture) {
		meta, err := storage.ReadMeta(fx.ids)
		if err != nil {
			t.Fatal(err)
		}
		spill := max(float64(4*meta.Arcs)/(1024*64), float64(1024*frames+1)/(1024*frames))
		testutil.RequireSpill(t, fx.ids, 1024, frames, spill)
		look, lookReads := starOnDisk(t, fx.ids, false, frames, true)
		paper, paperReads := starOnDisk(t, fx.ids, true, frames, true)
		matchOracle(t, fx.core, fx.cnt, look, paper)
		t.Logf("id order: block reads: lookahead %d, paper's rule %d; node computations %d vs %d",
			lookReads, paperReads, look.Stats.NodeComputations, paper.Stats.NodeComputations)
		strictly := fx.fam == "rmat"
		if lookReads > paperReads || (strictly && lookReads == paperReads) {
			t.Fatalf("id order: lookahead read %d blocks, the paper's rule %d", lookReads, paperReads)
		}
		if strictly && look.Stats.NodeComputations >= paper.Stats.NodeComputations {
			t.Fatalf("id order: lookahead made %d node computations, the paper's rule %d", look.Stats.NodeComputations, paper.Stats.NodeComputations)
		}
		if fx.pinned {
			pins.Check(t, "id.lookahead.reads", lookReads)
			pins.Check(t, "id.paper.reads", paperReads)
		}
		if fx.peel == "" {
			return
		}
		testutil.RequireSpill(t, fx.peel, 1024, frames, spill)
		look, lookReads = starOnDisk(t, fx.peel, false, frames, true)
		paper, paperReads = starOnDisk(t, fx.peel, true, frames, true)
		matchOracle(t, fx.core, fx.cnt, look, paper)
		if look.Stats.Iterations != 1 || paper.Stats.Iterations != 1 || lookReads != paperReads {
			t.Fatalf("peeling order: lookahead %d passes and %d reads, the paper's rule %d and %d; want one pass each and the same reads",
				look.Stats.Iterations, lookReads, paper.Stats.Iterations, paperReads)
		}
		if fx.pinned {
			pins.Check(t, "peel.reads", lookReads)
		}
	})
}

// TestRevisitsMatchOracleAndNeverReadMore runs SemiCore* as it runs on a
// disk graph — a violated node behind the cursor whose list is resident
// recomputed at once — and on the printed pass schedule, over the same
// fixtures in both layouts at B = 1024 through 2, 4 and the most frames
// whose cache the table still overflows twice (testutil.SpillFrames):
// both must land on the oracle's cores with exact counters, and on these
// fixtures the revisits must never pay more block reads than the pass
// schedule through the same frames. In Build's peeling order no node is
// violated behind the cursor, so the two schedules are one pass each;
// the id order is where revisits happen. Through 64 frames, the leg this
// test had before the tables were gap-coded, every fixture fits. That
// bound is measured here, not proved: on rmat17 through 2
// and 16 frames the revisits read 17 and 15 blocks more (12,674 and
// 12,672 against 12,657 on the 4-byte tables; BenchmarkCacheSweepRMAT17).
func TestRevisitsMatchOracleAndNeverReadMore(t *testing.T) {
	forEachFixture(t, func(t *testing.T, fx fixture) {
		for _, base := range []string{fx.ids, fx.peel} {
			if base == "" {
				continue
			}
			for _, frames := range []int{2, 4, testutil.SpillFrames(t, base, 1024, 2)} {
				rev, revReads := starOnDisk(t, base, false, frames, false)
				pass, passReads := starOnDisk(t, base, false, frames, true)
				matchOracle(t, fx.core, fx.cnt, rev, pass)
				t.Logf("%s, %d frames: block reads: revisits %d, pass schedule %d; node computations %d vs %d; passes %d vs %d",
					base, frames, revReads, passReads, rev.Stats.NodeComputations, pass.Stats.NodeComputations,
					rev.Stats.Iterations, pass.Stats.Iterations)
				if revReads > passReads {
					t.Fatalf("%s, %d frames: revisits read %d blocks, the pass schedule %d", base, frames, revReads, passReads)
				}
			}
		}
	})
}

// openDyn opens the tables at base as a dyngraph through the given frames.
func openDyn(t *testing.T, base string, ctr *stats.IOCounter, frames int) *dyngraph.Graph {
	t.Helper()
	g, err := dyngraph.Open(base, ctr, dyngraph.Options{CacheBlocks: frames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestStarCntInvariant: SemiCore* ends on the exact cores with cnt
// exact per Eq. 2 — the invariant maintenance (Algorithms 6-8) relies on,
// and cnt >= core with it — on every corpus graph and from every start:
// the degrees (SemiCoreStar) and, through SemiCoreStarFrom, four upper
// bounds: the exact cores, which take one iteration; the cores plus
// random offsets in {0, 1, 2}; the degrees again; and the cores of the
// graph with random extra edges. Each runs on the CSR and on a dyngraph
// over its tables through 64 and through 4 frames of 1 KiB.
func TestStarCntInvariant(t *testing.T) {
	seed := testutil.Seed(t, 37)
	for name, csr := range semicore.TestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := csr.NumNodes()
			core := verify.CoresByRepeatedRemoval(csr)
			cnt := verify.CntFor(csr, core)
			offset, degree, extra := make([]uint32, n), make([]uint32, n), csr.EdgeList()
			for v := range n {
				offset[v] = core[v] + uint32(rng.Intn(3))
				degree[v] = csr.Degree(v)
				extra = append(extra, graph.Edge{U: v, V: uint32(rng.Intn(int(n)))}) // loops and repeats are dropped
			}
			sup, err := memgraph.FromEdges(n, extra)
			if err != nil {
				t.Fatal(err)
			}
			bounds := map[string][]uint32{"fresh": nil, "exact": core, "offset": offset, "degree": degree, "supergraph": imcore.Decompose(sup, nil).Core}
			base := testutil.WriteCSR(t, csr)
			sources := map[string]graph.Source{
				"csr":         csr,
				"dyngraph-64": openDyn(t, base, stats.NewIOCounter(1024), 64),
				"dyngraph-4":  openDyn(t, base, stats.NewIOCounter(1024), 4),
			}
			for sname, g := range sources {
				for bname, bound := range bounds {
					var res *semicore.Result
					var err error
					if bound == nil {
						res, err = semicore.SemiCoreStar(g, nil)
					} else {
						res, err = semicore.SemiCoreStarFrom(g, bound, nil)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(res.Core, core) || !slices.Equal(res.Cnt, cnt) {
						t.Fatalf("%s from %s: cores %v cnt %v, want %v %v", sname, bname, res.Core, res.Cnt, core, cnt)
					}
					if bname == "exact" && res.Stats.Iterations != min(int(n), 1) {
						t.Fatalf("%s from the exact cores: %d iterations", sname, res.Stats.Iterations)
					}
				}
			}
			if _, err := semicore.SemiCoreStarFrom(csr, append(core, 0), nil); err == nil {
				t.Fatal("a bound one node too long was accepted")
			}
		})
	}
}

// TestSemiCoreStarFromIOGate pins the resume on testutil's gate graph
// through its frames, reads after open: from the degrees (no bound below
// them), the fresh decomposition the root package's
// TestDecompositionIOGate pins, then from the exact cores, in one pass.
// Both include the first use's node-table blocks.
func TestSemiCoreStarFromIOGate(t *testing.T) {
	base, _ := testutil.GateGraph(t)
	var prev *semicore.Result
	for _, leg := range []string{"fresh", "resumed"} {
		ctr := stats.NewIOCounter(0)
		g := openDyn(t, base, ctr, testutil.GateFrames(t, base))
		bound := slices.Repeat([]uint32{math.MaxUint32}, int(g.NumNodes()))
		if prev != nil {
			bound = prev.Core
		}
		opened := ctr.Reads()
		res, err := semicore.SemiCoreStarFrom(g, bound, nil)
		if err != nil {
			t.Fatal(err)
		}
		reads := ctr.Reads() - opened
		t.Logf("%s: %d iterations, %d reads", leg, res.Stats.Iterations, reads)
		pins.Check(t, leg+".iterations", int64(res.Stats.Iterations))
		pins.Check(t, leg+".reads", reads)
		if prev != nil && (!slices.Equal(res.Core, prev.Core) || !slices.Equal(res.Cnt, prev.Cnt)) {
			t.Error("the resumed state differs from the fresh decomposition")
		}
		prev = res
	}
}

// BenchmarkLocalCore microbenchmarks one locality-equation evaluation
// (the inner loop every semi-external algorithm shares) on the
// highest-degree node of a skewed graph, under both neighbour rules.
func BenchmarkLocalCore(b *testing.B) {
	csr := gen.Build(gen.RMAT(14, 12, 0.57, 0.19, 0.19, 1))
	var v uint32
	for u := uint32(0); u < csr.NumNodes(); u++ {
		if csr.Degree(u) > csr.Degree(v) {
			v = u
		}
	}
	res, err := semicore.SemiCoreStar(csr, nil)
	if err != nil {
		b.Fatal(err)
	}
	nbrs := csr.Neighbors(v)
	deg := uint32(len(nbrs))
	for _, bc := range []struct {
		name string
		cnt  []int32
	}{{"lookahead", res.Cnt}, {"stored", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf semicore.Buf
			for i := 0; i < b.N; i++ {
				if buf.LocalCore(deg, nbrs, res.Core, bc.cnt) == 0 {
					b.Fatal("zero core for hub node")
				}
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}
