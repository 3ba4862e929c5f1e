package semicore

import (
	"fmt"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/verify"
)

// figRow asserts that the core array after an iteration equals a paper row.
func figRow(t *testing.T, iter int, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("iteration %d: row length %d, want %d", iter, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("iteration %d: core(v%d) = %d, want %d (row %v, want %v)",
				iter, v, got[v], want[v], got, want)
		}
	}
}

// traceRecorder captures per-iteration snapshots.
type traceRecorder struct {
	rows     [][]uint32
	computed [][]uint32
}

func (tr *traceRecorder) fn() Trace {
	return func(iter int, computed []uint32, core []uint32) {
		tr.rows = append(tr.rows, append([]uint32(nil), core...))
		tr.computed = append(tr.computed, append([]uint32(nil), computed...))
	}
}

// TestFig2SemiCoreTrace replays Fig. 2: SemiCore on the Fig. 1 graph
// terminates in 4 iterations with the exact per-iteration core rows, and
// recomputes every node in every iteration (36 node computations).
func TestFig2SemiCoreTrace(t *testing.T) {
	g := gen.SampleGraph()
	var tr traceRecorder
	res, err := SemiCore(g, &Options{Trace: tr.fn()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", res.Stats.Iterations)
	}
	if res.Stats.NodeComputations != 36 {
		t.Fatalf("node computations = %d, want 36", res.Stats.NodeComputations)
	}
	wantRows := [][]uint32{
		{3, 3, 3, 3, 3, 3, 2, 2, 1},
		{3, 3, 3, 3, 3, 2, 2, 2, 1},
		{3, 3, 3, 3, 2, 2, 2, 2, 1},
		{3, 3, 3, 3, 2, 2, 2, 2, 1},
	}
	for i, want := range wantRows {
		figRow(t, i+1, tr.rows[i], want)
	}
}

// TestFig4SemiCorePlusTrace replays Fig. 4: SemiCore+ produces the same
// rows in 4 iterations but only 23 node computations (the paper's count),
// with the exact grey-cell sets.
func TestFig4SemiCorePlusTrace(t *testing.T) {
	g := gen.SampleGraph()
	var tr traceRecorder
	res, err := SemiCorePlus(g, &Options{Trace: tr.fn()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", res.Stats.Iterations)
	}
	if res.Stats.NodeComputations != 23 {
		t.Fatalf("node computations = %d, want 23 (paper, Example 4.2)", res.Stats.NodeComputations)
	}
	wantRows := [][]uint32{
		{3, 3, 3, 3, 3, 3, 2, 2, 1},
		{3, 3, 3, 3, 3, 2, 2, 2, 1},
		{3, 3, 3, 3, 2, 2, 2, 2, 1},
		{3, 3, 3, 3, 2, 2, 2, 2, 1},
	}
	for i, want := range wantRows {
		figRow(t, i+1, tr.rows[i], want)
	}
	wantComputed := [][]uint32{
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{3, 4, 5},
		{2, 3},
	}
	for i, want := range wantComputed {
		got := tr.computed[i]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iteration %d computed %v, want %v", i+1, got, want)
		}
	}
}

// TestFig5SemiCoreStarTrace replays Fig. 5 / Example 4.3: SemiCore* needs
// only 3 iterations and 11 node computations, recomputing exactly v5 in
// iteration 2 and v4 in iteration 3.
func TestFig5SemiCoreStarTrace(t *testing.T) {
	g := gen.SampleGraph()
	var tr traceRecorder
	res, err := SemiCoreStar(g, &Options{Trace: tr.fn()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Stats.Iterations)
	}
	if res.Stats.NodeComputations != 11 {
		t.Fatalf("node computations = %d, want 11 (paper, Example 4.3)", res.Stats.NodeComputations)
	}
	wantRows := [][]uint32{
		{3, 3, 3, 3, 3, 3, 2, 2, 1},
		{3, 3, 3, 3, 3, 2, 2, 2, 1},
		{3, 3, 3, 3, 2, 2, 2, 2, 1},
	}
	for i, want := range wantRows {
		figRow(t, i+1, tr.rows[i], want)
	}
	wantComputed := [][]uint32{
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{5},
		{4},
	}
	for i, want := range wantComputed {
		got := tr.computed[i]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iteration %d computed %v, want %v", i+1, got, want)
		}
	}
	// Example 4.3 also fixes cnt(v5) = 2 after iteration 1 implicitly; at
	// convergence cnt must satisfy Eq. 2 exactly.
	wantCnt := verify.CntFor(g, res.Core)
	for v, w := range wantCnt {
		if res.Cnt[v] != w {
			t.Fatalf("cnt(v%d) = %d, want %d", v, res.Cnt[v], w)
		}
	}
}

// testGraphs returns the differential-testing corpus: one graph per
// generator family plus hand-built edge cases.
func testGraphs(tb testing.TB) map[string]*memgraph.CSR {
	tb.Helper()
	mk := func(edges []graph.Edge, n uint32) *memgraph.CSR {
		g, err := memgraph.FromEdges(n, edges)
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	path := func(n uint32) []graph.Edge {
		var e []graph.Edge
		for i := uint32(0); i+1 < n; i++ {
			e = append(e, graph.Edge{U: i, V: i + 1})
		}
		return e
	}
	complete := func(n uint32) []graph.Edge {
		var e []graph.Edge
		for i := uint32(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				e = append(e, graph.Edge{U: i, V: j})
			}
		}
		return e
	}
	star := func(n uint32) []graph.Edge {
		var e []graph.Edge
		for i := uint32(1); i < n; i++ {
			e = append(e, graph.Edge{U: 0, V: i})
		}
		return e
	}
	return map[string]*memgraph.CSR{
		"sample":      gen.SampleGraph(),
		"empty":       mk(nil, 0),
		"singleton":   mk(nil, 1),
		"isolated":    mk(nil, 7),
		"one-edge":    mk([]graph.Edge{{U: 0, V: 1}}, 5),
		"path-50":     mk(path(50), 50),
		"k6":          mk(complete(6), 6),
		"star-40":     mk(star(40), 40),
		"er":          gen.Build(gen.ErdosRenyi(300, 900, 7)),
		"ba":          gen.Build(gen.BarabasiAlbert(400, 4, 11)),
		"rmat":        gen.Build(gen.RMAT(9, 6, 0.57, 0.19, 0.19, 13)),
		"social":      gen.Build(gen.Social(350, 3, 12, 9, 17)),
		"web":         gen.Build(gen.WebGraph(7, 4, 6, 25, 19)),
		"small-world": gen.Build(gen.SmallWorld(250, 3, 0.1, 23)),
	}
}

// TestDecompositionAgainstReference checks all three semi-external
// algorithms against two independent oracles on the whole corpus.
func TestDecompositionAgainstReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			want := verify.CoresByRepeatedRemoval(g)
			fix := verify.CoresByFixpoint(g)
			for v := range want {
				if want[v] != fix[v] {
					t.Fatalf("oracles disagree at v%d: removal %d, fixpoint %d", v, want[v], fix[v])
				}
			}
			algos := map[string]func(*memgraph.CSR) (*Result, error){
				"SemiCore":  func(g *memgraph.CSR) (*Result, error) { return SemiCore(g, nil) },
				"SemiCore+": func(g *memgraph.CSR) (*Result, error) { return SemiCorePlus(g, nil) },
				"SemiCore*": func(g *memgraph.CSR) (*Result, error) { return SemiCoreStar(g, nil) },
			}
			for aname, run := range algos {
				res, err := run(g)
				if err != nil {
					t.Fatalf("%s: %v", aname, err)
				}
				for v := range want {
					if res.Core[v] != want[v] {
						t.Fatalf("%s: core(v%d) = %d, want %d", aname, v, res.Core[v], want[v])
					}
				}
				if err := verify.CheckLocality(g, res.Core); err != nil {
					t.Fatalf("%s: %v", aname, err)
				}
			}
		})
	}
}

// TestComputationOrdering verifies the paper's efficiency ordering on
// non-trivial graphs: SemiCore* performs no more node computations than
// SemiCore+, which performs no more than SemiCore.
func TestComputationOrdering(t *testing.T) {
	for name, g := range testGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			basic, err := SemiCore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			plus, err := SemiCorePlus(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			star, err := SemiCoreStar(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plus.Stats.NodeComputations > basic.Stats.NodeComputations {
				t.Fatalf("SemiCore+ computations %d > SemiCore %d",
					plus.Stats.NodeComputations, basic.Stats.NodeComputations)
			}
			if star.Stats.NodeComputations > plus.Stats.NodeComputations {
				t.Fatalf("SemiCore* computations %d > SemiCore+ %d",
					star.Stats.NodeComputations, plus.Stats.NodeComputations)
			}
		})
	}
}

// TestLocalCoreUnit pins LocalCore behaviour on crafted inputs, including
// the walkthrough in Example 4.1 (v3's first recomputation).
func TestLocalCoreUnit(t *testing.T) {
	var b Buf
	core := []uint32{3, 3, 3, 6, 3, 5, 3, 2, 1}
	// Example 4.1: processing v3 with neighbour cores {3,3,3,3,5,3} -> 3.
	nbrs := []uint32{0, 1, 2, 4, 5, 6}
	if got := b.LocalCore(6, nbrs, core, nil); got != 3 {
		t.Fatalf("LocalCore(v3) = %d, want 3", got)
	}
	// Reuse must see a clean histogram.
	if got := b.LocalCore(6, nbrs, core, nil); got != 3 {
		t.Fatalf("LocalCore(v3) second call = %d, want 3", got)
	}
	if got := b.LocalCore(0, nil, core, nil); got != 0 {
		t.Fatalf("LocalCore(isolated) = %d, want 0", got)
	}
	// A node whose neighbours all have core 0 must land on 0.
	zeros := []uint32{0, 0, 0}
	if got := b.LocalCore(2, []uint32{0, 1, 2}, zeros, nil); got != 0 {
		t.Fatalf("LocalCore(all-zero nbrs) = %d, want 0", got)
	}
	// Lookahead: a neighbour whose exact cnt is below its estimate counts
	// one level lower; a negative cnt is a marker and earns no discount.
	// With v0, v1, v2 and v4 violated only v5 and v6 still support level 3.
	cnt := []int32{2, 0, 2, -1, 1, 5, 3, -7, -1}
	if got := b.LocalCore(6, nbrs, core, cnt); got != 2 {
		t.Fatalf("LocalCore(v3) with four violated neighbours = %d, want 2", got)
	}
	cnt[4] = -1
	if got := b.LocalCore(6, nbrs, core, cnt); got != 3 {
		t.Fatalf("LocalCore(v3) with an uncounted neighbour = %d, want 3", got)
	}
}
