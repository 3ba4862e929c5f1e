package verify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kcore/internal/gen"
	"kcore/internal/memgraph"
	"kcore/internal/testutil"
)

func TestOraclesAgreeOnGenerators(t *testing.T) {
	graphs := map[string]*memgraph.CSR{
		"sample": gen.SampleGraph(),
		"er":     gen.Build(gen.ErdosRenyi(200, 600, 501)),
		"ba":     gen.Build(gen.BarabasiAlbert(200, 3, 503)),
		"rmat":   gen.Build(gen.RMAT(8, 5, 0.57, 0.19, 0.19, 505)),
		"web":    gen.Build(gen.WebGraph(6, 4, 4, 15, 507)),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			a := CoresByRepeatedRemoval(g)
			b := CoresByFixpoint(g)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("oracles disagree at %d: %d vs %d", v, a[v], b[v])
				}
			}
			if err := CheckLocality(g, a); err != nil {
				t.Fatal(err)
			}
			if err := CheckAgainst(g, a); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKnownCores(t *testing.T) {
	g := gen.SampleGraph()
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	got := CoresByRepeatedRemoval(g)
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("core(v%d) = %d, want %d", v, got[v], w)
		}
	}
	if Kmax(got) != 3 {
		t.Fatalf("kmax = %d, want 3", Kmax(got))
	}
	if Kmax(nil) != 0 {
		t.Fatal("kmax of empty must be 0")
	}
}

func TestCheckLocalityRejectsWrongAssignments(t *testing.T) {
	g := gen.SampleGraph()
	good := CoresByRepeatedRemoval(g)

	tooHigh := append([]uint32(nil), good...)
	tooHigh[8] = 2 // v8 has one neighbour; cannot sustain core 2
	if err := CheckLocality(g, tooHigh); err == nil {
		t.Fatal("inflated assignment accepted")
	}

	tooLow := append([]uint32(nil), good...)
	for i := range tooLow {
		if tooLow[i] > 0 {
			tooLow[i]--
		}
	}
	// Uniformly lowering leaves the first condition intact but violates
	// the maximality condition.
	if err := CheckLocality(g, tooLow); err == nil {
		t.Fatal("deflated assignment accepted")
	}

	if err := CheckLocality(g, []uint32{1, 2}); err == nil {
		t.Fatal("wrong-length assignment accepted")
	}
	if err := CheckAgainst(g, []uint32{1}); err == nil {
		t.Fatal("wrong-length CheckAgainst accepted")
	}
	bad := append([]uint32(nil), good...)
	bad[0] = 99
	if err := CheckAgainst(g, bad); err == nil {
		t.Fatal("wrong value accepted")
	}
}

func TestCntForMatchesDefinition(t *testing.T) {
	g := gen.SampleGraph()
	core := CoresByRepeatedRemoval(g)
	cnt := CntFor(g, core)
	// Hand-check v5: neighbours {3,4,6,7,8} with cores {3,2,2,2,1} and
	// core(v5)=2 -> 4 supporters.
	if cnt[5] != 4 {
		t.Fatalf("cnt(v5) = %d, want 4", cnt[5])
	}
	for v := range core {
		if cnt[v] < int32(core[v]) {
			t.Fatalf("converged state must satisfy cnt >= core at %d", v)
		}
	}
}

// TestCoreMonotoneUnderSubgraph is the classic property: removing edges
// never increases any core number.
func TestCoreMonotoneUnderSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Build(gen.ErdosRenyi(60, 180, seed))
		before := CoresByRepeatedRemoval(g)
		edges := g.EdgeList()
		if len(edges) == 0 {
			return true
		}
		sub, err := memgraph.FromEdges(g.NumNodes(), edges[:len(edges)/2])
		if err != nil {
			return false
		}
		after := CoresByRepeatedRemoval(sub)
		for v := range after {
			if after[v] > before[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(testutil.Seed(t, 101)))}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreBounds: 0 <= core(v) <= deg(v), and core(v) >= 1 iff deg >= 1.
func TestCoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Build(gen.BarabasiAlbert(80, 2, seed))
		core := CoresByRepeatedRemoval(g)
		for v := uint32(0); v < g.NumNodes(); v++ {
			if core[v] > g.Degree(v) {
				return false
			}
			if (core[v] >= 1) != (g.Degree(v) >= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(testutil.Seed(t, 102)))}); err != nil {
		t.Fatal(err)
	}
}
