package semicore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/verify"
)

// starOnDisk decomposes the on-disk graph at base with SemiCore* under
// either recompute rule through a cache of the given frames
// (storage.Open, its reads at open left out) and returns the result
// with the block reads it cost (1 KiB blocks, so the small fixtures still
// span many blocks). SemiCore* recomputes resident nodes behind its cursor
// at once unless passOnly hides the cache from it.
func starOnDisk(t *testing.T, base string, paperRule bool, frames int, passOnly bool) (*Result, int64) {
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
	res, err := semiCoreStar(src, nil, paperRule, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctr.Reads() - opened
}

// family is one generator family of the disk property tests; strictly
// marks the skewed one on which the lookahead must read strictly less.
type family struct {
	name     string
	edges    func(seed int64) []graph.Edge
	strictly bool
}

var families = []family{
	{"er", func(s int64) []graph.Edge { return gen.ErdosRenyi(3000, 15000, s) }, false},
	{"ba", func(s int64) []graph.Edge { return gen.BarabasiAlbert(3000, 4, s) }, false},
	{"rmat", func(s int64) []graph.Edge { return gen.RMAT(11, 12, 0.57, 0.19, 0.19, s) }, true},
	{"web", func(s int64) []graph.Edge { return gen.WebGraph(10, 8, 20, 50, s) }, false},
	{"social", func(s int64) []graph.Edge { return gen.Social(3000, 4, 12, 12, s) }, false},
	{"smallworld", func(s int64) []graph.Edge { return gen.SmallWorld(3000, 6, 0.1, s) }, false},
}

// forEachFixture builds every family at three seeds from the test's seed
// as block-counted disk tables and calls check with the path prefix and
// the oracle (IMCore's cores and their Eq. 2 counters).
func forEachFixture(t *testing.T, check func(t *testing.T, fam family, base string, core []uint32, cnt []int32)) {
	seed := testutil.Seed(t, 1)
	for _, fam := range families {
		for i := int64(0); i < 3; i++ {
			fam, s := fam, seed+i
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, s), func(t *testing.T) {
				edges := fam.edges(s)
				csr := gen.Build(edges)
				base := filepath.Join(t.TempDir(), "g")
				err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: csr.NumNodes()})
				if err != nil {
					t.Fatal(err)
				}
				core := imcore.Decompose(csr, nil).Core
				check(t, fam, base, core, verify.CntFor(csr, core))
			})
		}
	}
}

// matchOracle fails unless every result holds the oracle's cores and
// counters exactly.
func matchOracle(t *testing.T, core []uint32, cnt []int32, results ...*Result) {
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
// schedule, over the block-counted disk tables of every generator family:
// both must land on the oracle's cores with exact counters, and the
// lookahead must never pay more block reads than the rule it replaces
// (strictly fewer on the skewed RMAT). They read through 16 frames: every
// fixture's encoded edge table is at least as many times that as its
// 4-byte table was the 64 frames the test read through before (through
// 64 the RMAT tables, a third of their old size, nearly fit, and both
// rules read each block once).
func TestLookaheadMatchesOracleAndNeverReadsMore(t *testing.T) {
	const frames = 16
	forEachFixture(t, func(t *testing.T, fam family, base string, core []uint32, cnt []int32) {
		meta, err := storage.ReadMeta(base)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSpill(t, base, 1024, frames, float64(4*meta.Arcs)/(1024*64))
		look, lookReads := starOnDisk(t, base, false, frames, true)
		paper, paperReads := starOnDisk(t, base, true, frames, true)
		matchOracle(t, core, cnt, look, paper)
		t.Logf("block reads: lookahead %d, paper's rule %d; node computations %d vs %d",
			lookReads, paperReads, look.Stats.NodeComputations, paper.Stats.NodeComputations)
		if lookReads > paperReads || (fam.strictly && lookReads == paperReads) {
			t.Fatalf("lookahead read %d blocks, the paper's rule %d", lookReads, paperReads)
		}
		if pin, ok := lookaheadPins[t.Name()[strings.Index(t.Name(), "/")+1:]]; ok && pin != [2]int64{lookReads, paperReads} {
			t.Fatalf("lookahead and paper's rule read %d and %d blocks, pinned at %v", lookReads, paperReads, pin)
		}
	})
}

// lookaheadPins are the exact reads, lookahead then the paper's rule, of
// TestLookaheadMatchesOracleAndNeverReadsMore at the default seed. Each
// includes the first use's pass over the node table. Build lays the
// tables out by degree, and every pin fell against id order (er {205,
// 238}, {156, 183}, {190, 226}; ba {287, 297}, {272, 282}, {296, 310};
// rmat {231, 271}, {231, 249}, {237, 268}; web {65, 75}, {51, 66}, {75,
// 85}; social {246, 261}, {254, 260}, {267, 279}), but for smallworld,
// which Build keeps in id order: a ring lattice's ids are already its
// locality order, which the degree order scatters ({424, 452}, {385,
// 449}, {392, 429} in degree order). ARCHITECTURE, "Deviations from the
// paper", has the scan order.
var lookaheadPins = map[string][2]int64{
	"er/seed=1":         {138, 174},
	"er/seed=2":         {122, 144},
	"er/seed=3":         {146, 165},
	"ba/seed=1":         {213, 220},
	"ba/seed=2":         {202, 223},
	"ba/seed=3":         {221, 227},
	"rmat/seed=1":       {109, 127},
	"rmat/seed=2":       {106, 137},
	"rmat/seed=3":       {114, 148},
	"web/seed=1":        {26, 26},
	"web/seed=2":        {36, 44},
	"web/seed=3":        {44, 47},
	"social/seed=1":     {146, 171},
	"social/seed=2":     {162, 184},
	"social/seed=3":     {171, 189},
	"smallworld/seed=1": {71, 71},
	"smallworld/seed=2": {66, 66},
	"smallworld/seed=3": {66, 66},
}

// TestRevisitsMatchOracleAndNeverReadMore runs SemiCore* as it runs on a
// disk graph — a violated node behind the cursor whose list is resident
// recomputed at once — and on the printed pass schedule, over the same
// fixtures at B = 1024 through 2, 4 and 8 frames: both must land on the
// oracle's cores with exact counters, and on these fixtures the revisits
// must never pay more block reads than the pass schedule through the
// same frames. Every fixture's edge table is at least twice the largest
// cache (RequireSpill; the smallest, web, is 17,223 bytes at seed 1,
// 2.10 times 8 KiB): through 64 frames, the leg this test had before the
// tables were gap-coded, every fixture fits, and through 16 the web
// tables barely spill. That bound is measured here, not proved: on
// rmat17 through 2 and 16 frames the revisits read 17 and 15 blocks
// more (12,674 and 12,672 against 12,657 on the 4-byte tables;
// BenchmarkCacheSweepRMAT17).
func TestRevisitsMatchOracleAndNeverReadMore(t *testing.T) {
	frameLegs := []int{2, 4, 8}
	forEachFixture(t, func(t *testing.T, _ family, base string, core []uint32, cnt []int32) {
		testutil.RequireSpill(t, base, 1024, frameLegs[len(frameLegs)-1], 2)
		for _, frames := range frameLegs {
			rev, revReads := starOnDisk(t, base, false, frames, false)
			pass, passReads := starOnDisk(t, base, false, frames, true)
			matchOracle(t, core, cnt, rev, pass)
			t.Logf("%d frames: block reads: revisits %d, pass schedule %d; node computations %d vs %d; passes %d vs %d",
				frames, revReads, passReads, rev.Stats.NodeComputations, pass.Stats.NodeComputations,
				rev.Stats.Iterations, pass.Stats.Iterations)
			if revReads > passReads {
				t.Fatalf("%d frames: revisits read %d blocks, the pass schedule %d", frames, revReads, passReads)
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
	for name, csr := range testGraphs(t) {
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
					var res *Result
					var err error
					if bound == nil {
						res, err = SemiCoreStar(g, nil)
					} else {
						res, err = SemiCoreStarFrom(g, bound, nil)
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
			if _, err := SemiCoreStarFrom(csr, append(core, 0), nil); err == nil {
				t.Fatal("a bound one node too long was accepted")
			}
		})
	}
}

// TestSemiCoreStarFromIOGate pins the resume on RMAT(13,12) through 30
// frames, reads after open: from the exact cores SemiCore* takes one
// pass and 79 reads, from the degrees (no bound below them) 3 passes and
// 139, the fresh decomposition the root package's
// TestDecompositionIOGate pins. Both include the first use's 5 blocks of
// node table: Build lays the tables out by degree, whose node records
// carry the ids (in id order, 3 blocks: 1 pass and 77 reads, 5 and 229;
// 24 when it took 12 bytes a node: 98 and 250). The encoded
// edge table is 2.46 times the 30 frames, no less than the 4-byte table
// (635,304 bytes; 5 passes and 465 reads, 1 and 180) was the default 64.
func TestSemiCoreStarFromIOGate(t *testing.T) {
	const frames = 30
	base := filepath.Join(t.TempDir(), "g")
	if err := graphio.Build(base, graphio.SliceSource(gen.RMAT(13, 12, .57, .19, .19, 1)), graphio.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	testutil.RequireSpill(t, base, 4096, frames, 635304/(4096*64.0))
	var prev *Result
	for _, want := range []struct{ iters, reads int }{{3, 139}, {1, 79}} {
		ctr := stats.NewIOCounter(0)
		g := openDyn(t, base, ctr, frames)
		bound := slices.Repeat([]uint32{math.MaxUint32}, int(g.NumNodes()))
		if prev != nil {
			bound = prev.Core
		}
		opened := ctr.Reads()
		res, err := SemiCoreStarFrom(g, bound, nil)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(ctr.Reads() - opened)
		t.Logf("%d iterations, %d reads", res.Stats.Iterations, reads)
		if res.Stats.Iterations != want.iters || reads != want.reads {
			t.Errorf("%d iterations and %d reads, want %d and %d", res.Stats.Iterations, reads, want.iters, want.reads)
		}
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
	res, err := SemiCoreStar(csr, nil)
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
			var buf localCoreBuf
			for i := 0; i < b.N; i++ {
				if buf.localCore(deg, nbrs, res.Core, bc.cnt) == 0 {
					b.Fatal("zero core for hub node")
				}
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}
