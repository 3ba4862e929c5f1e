package memgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kcore/internal/graph"
)

func mustGraph(t *testing.T, n uint32, edges []graph.Edge) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesNormalises(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{
		{U: 1, V: 0}, {U: 0, V: 1}, // duplicate, reversed
		{U: 2, V: 2}, // self loop
		{U: 3, V: 1},
		{U: 3, V: 1}, // duplicate
	})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 3) {
		t.Fatal("edge set wrong")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 3) {
		t.Fatal("phantom edges")
	}
	nbrs := g.Neighbors(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 3 {
		t.Fatalf("nbr(1) = %v, want [0 3]", nbrs)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []graph.Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}}
	g := mustGraph(t, 4, edges)
	back := g.EdgeList()
	if len(back) != 3 {
		t.Fatalf("edge list %v", back)
	}
	g2 := mustGraph(t, 4, back)
	if g2.NumArcs() != g.NumArcs() {
		t.Fatal("round trip changed arc count")
	}
}

func TestModelBytes(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	want := int64(4*8 + 2*4)
	if g.ModelBytes() != want {
		t.Fatalf("model bytes = %d, want %d", g.ModelBytes(), want)
	}
}

func TestSampleNodesNested(t *testing.T) {
	g := mustGraph(t, 100, ring(100))
	g60, err := SampleNodes(g, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	g20, err := SampleNodes(g, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g60.NumNodes() != 60 || g20.NumNodes() != 20 {
		t.Fatalf("sampled sizes %d/%d, want 60/20", g60.NumNodes(), g20.NumNodes())
	}
	// Determinism.
	h, err := SampleNodes(g, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumArcs() != g60.NumArcs() {
		t.Fatal("node sampling not deterministic")
	}
	// Full fraction keeps everything.
	full, err := SampleNodes(g, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumArcs() != g.NumArcs() {
		t.Fatal("100% node sample lost edges")
	}
}

func TestSampleEdgesKeepsIncidentNodes(t *testing.T) {
	g := mustGraph(t, 50, ring(50))
	s, err := SampleEdges(g, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 25 {
		t.Fatalf("kept %d edges, want 25", s.NumEdges())
	}
	// Every node in the sample must be incident to a kept edge.
	for v := uint32(0); v < s.NumNodes(); v++ {
		if s.Degree(v) == 0 {
			t.Fatalf("sampled node %d isolated", v)
		}
	}
	if _, err := SampleEdges(g, 1.5, 7); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestDegreeSumEqualsArcs(t *testing.T) {
	f := func(raw []uint16) bool {
		n := uint32(64)
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: uint32(raw[i]) % n, V: uint32(raw[i+1]) % n})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		var sum int64
		for v := uint32(0); v < n; v++ {
			sum += int64(g.Degree(v))
		}
		return sum == g.NumArcs() && sum == 2*g.NumEdges()
	}
	// A fixed source: testutil, which owns -seed, imports this package.
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(111))}); err != nil {
		t.Fatal(err)
	}
}

func ring(n uint32) []graph.Edge {
	edges := make([]graph.Edge, 0, n)
	for i := uint32(0); i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n})
	}
	return edges
}
