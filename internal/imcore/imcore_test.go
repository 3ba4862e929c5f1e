package imcore

import (
	"math/rand"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/verify"
)

func corpus(tb testing.TB) map[string]*memgraph.CSR {
	tb.Helper()
	return map[string]*memgraph.CSR{
		"sample": gen.SampleGraph(),
		"er":     gen.Build(gen.ErdosRenyi(300, 900, 31)),
		"ba":     gen.Build(gen.BarabasiAlbert(400, 4, 33)),
		"rmat":   gen.Build(gen.RMAT(9, 6, 0.57, 0.19, 0.19, 35)),
		"social": gen.Build(gen.Social(350, 3, 12, 9, 37)),
		"web":    gen.Build(gen.WebGraph(7, 4, 6, 25, 39)),
	}
}

func TestDecomposeAgainstReference(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			res := Decompose(g, nil)
			if err := verify.CheckAgainst(g, res.Core); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDecomposeEdgeCases(t *testing.T) {
	for _, n := range []uint32{0, 1, 5} {
		g, err := memgraph.FromEdges(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := Decompose(g, nil)
		for v, c := range res.Core {
			if c != 0 {
				t.Fatalf("n=%d: core(%d) = %d, want 0", n, v, c)
			}
		}
	}
	// Complete graph K5: all cores 4.
	var edges []graph.Edge
	for i := uint32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	k5, _ := memgraph.FromEdges(5, edges)
	for v, c := range Decompose(k5, nil).Core {
		if c != 4 {
			t.Fatalf("K5 core(%d) = %d, want 4", v, c)
		}
	}
}

func TestDynGraphOps(t *testing.T) {
	g := NewDynGraph(gen.SampleGraph())
	if g.NumEdges() != 15 {
		t.Fatalf("edges = %d, want 15", g.NumEdges())
	}
	if err := g.Insert(7, 8); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(7, 8) || !g.HasEdge(8, 7) {
		t.Fatal("insert not symmetric")
	}
	if err := g.Insert(7, 8); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := g.Insert(3, 3); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.Delete(7, 8); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(7, 8) {
		t.Fatal("delete left edge")
	}
	if err := g.Delete(7, 8); err == nil {
		t.Fatal("absent delete accepted")
	}
	if err := g.Insert(0, 99); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	// Round trip through CSR preserves the edge set.
	back := g.CSR()
	if back.NumEdges() != 15 {
		t.Fatalf("CSR edges = %d, want 15", back.NumEdges())
	}
}

// TestMaintainerPaperExample replays Example 2.1: inserting (v7,v8) into
// the Fig. 1 graph lifts core(v8) from 1 to 2 and changes nothing else.
func TestMaintainerPaperExample(t *testing.T) {
	m := NewMaintainer(NewDynGraph(gen.SampleGraph()))
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	for v, w := range want {
		if m.Core[v] != w {
			t.Fatalf("initial core(v%d) = %d, want %d", v, m.Core[v], w)
		}
	}
	st, err := m.Insert(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Core[8] != 2 {
		t.Fatalf("core(v8) = %d after insert, want 2", m.Core[8])
	}
	if st.Changed != 1 {
		t.Fatalf("changed = %d, want 1 (only v8)", st.Changed)
	}
	for v := 0; v < 8; v++ {
		if m.Core[v] != want[v] {
			t.Fatalf("core(v%d) drifted to %d", v, m.Core[v])
		}
	}
	// And deleting it restores the original assignment.
	if _, err := m.Delete(7, 8); err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		if m.Core[v] != w {
			t.Fatalf("core(v%d) = %d after delete, want %d", v, m.Core[v], w)
		}
	}
}

// TestMaintainerRandomChurn performs long random insert/delete sequences
// on every corpus graph and cross-checks against recomputation after every
// operation.
func TestMaintainerRandomChurn(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(71))
			m := NewMaintainer(NewDynGraph(g))
			n := g.NumNodes()
			ops := 60
			for i := 0; i < ops; i++ {
				u := uint32(r.Intn(int(n)))
				v := uint32(r.Intn(int(n)))
				if u == v {
					continue
				}
				if m.G.HasEdge(u, v) {
					if _, err := m.Delete(u, v); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := m.Insert(u, v); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Check(); err != nil {
					t.Fatalf("after op %d (%d,%d): %v", i, u, v, err)
				}
			}
		})
	}
}

// TestMaintainerDeltaBound verifies Theorem 3.1 on random operations: no
// core number moves by more than one per update.
func TestMaintainerDeltaBound(t *testing.T) {
	g := gen.Build(gen.ErdosRenyi(200, 800, 91))
	m := NewMaintainer(NewDynGraph(g))
	r := rand.New(rand.NewSource(92))
	for i := 0; i < 80; i++ {
		before := append([]uint32(nil), m.Core...)
		u := uint32(r.Intn(200))
		v := uint32(r.Intn(200))
		if u == v {
			continue
		}
		if m.G.HasEdge(u, v) {
			m.Delete(u, v)
		} else {
			m.Insert(u, v)
		}
		for x := range before {
			d := int64(m.Core[x]) - int64(before[x])
			if d < -1 || d > 1 {
				t.Fatalf("op %d: core(%d) jumped %d -> %d", i, x, before[x], m.Core[x])
			}
		}
	}
}
