package maintain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
)

// TestBatchDeleteEqualsSequential deletes the same edge set via
// BatchDelete and via one-by-one SemiDelete* and demands identical final
// state, with the batch never doing more node computations.
func TestBatchDeleteEqualsSequential(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			if g.NumEdges() < 30 {
				t.Skip("too few edges")
			}
			edges := g.EdgeList()
			r := rand.New(rand.NewSource(301))
			var batch []graph.Edge
			for _, i := range r.Perm(len(edges))[:20] {
				batch = append(batch, edges[i])
			}

			sBatch := newSessionFor(t, g, dyngraph.Options{})
			rsBatch, err := sBatch.BatchDelete(batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := sBatch.VerifyState(); err != nil {
				t.Fatal(err)
			}

			sSeq := newSessionFor(t, g, dyngraph.Options{})
			var seqComps int64
			for _, e := range batch {
				rs, err := sSeq.DeleteStar(e.U, e.V)
				if err != nil {
					t.Fatal(err)
				}
				seqComps += rs.NodeComputations
			}
			for v := range sSeq.Core() {
				if sBatch.Core()[v] != sSeq.Core()[v] {
					t.Fatalf("core(%d): batch %d, sequential %d", v, sBatch.Core()[v], sSeq.Core()[v])
				}
				if sBatch.Cnt()[v] != sSeq.Cnt()[v] {
					t.Fatalf("cnt(%d): batch %d, sequential %d", v, sBatch.Cnt()[v], sSeq.Cnt()[v])
				}
			}
			if rsBatch.NodeComputations > seqComps {
				t.Fatalf("batch computations %d > sequential %d", rsBatch.NodeComputations, seqComps)
			}
		})
	}
}

// TestBatchDeleteAtomicOnError verifies that an invalid edge in the
// middle of a batch leaves graph and state untouched.
func TestBatchDeleteAtomicOnError(t *testing.T) {
	g := gen.SampleGraph()
	s := newSessionFor(t, g, dyngraph.Options{})
	coreBefore := append([]uint32(nil), s.Core()...)
	edgesBefore := s.G.NumEdges()
	batch := []graph.Edge{
		{U: 0, V: 1},
		{U: 7, V: 8}, // not present -> error
		{U: 2, V: 3},
	}
	if _, err := s.BatchDelete(batch); err == nil {
		t.Fatal("batch with absent edge accepted")
	}
	if s.G.NumEdges() != edgesBefore {
		t.Fatalf("edge count %d after failed batch, want %d", s.G.NumEdges(), edgesBefore)
	}
	if has, _ := s.G.HasEdge(0, 1); !has {
		t.Fatal("prefix deletion not rolled back")
	}
	for v := range coreBefore {
		if s.Core()[v] != coreBefore[v] {
			t.Fatalf("core(%d) changed by failed batch", v)
		}
	}
	// A duplicate inside the batch must also fail atomically.
	if _, err := s.BatchDelete([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Fatal("duplicate-in-batch accepted")
	}
	if has, _ := s.G.HasEdge(0, 1); !has {
		t.Fatal("duplicate batch not rolled back")
	}
}

// TestBatchDeleteEmpty covers the trivial case.
func TestBatchDeleteEmpty(t *testing.T) {
	s := newSessionFor(t, gen.SampleGraph(), dyngraph.Options{})
	rs, err := s.BatchDelete(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NodeComputations != 0 {
		t.Fatal("empty batch did work")
	}
}

// TestBatchInsertMatchesSequential checks the insertion helper equals
// per-edge InsertStar.
func TestBatchInsertMatchesSequential(t *testing.T) {
	g := gen.Build(gen.BarabasiAlbert(150, 3, 303))
	add := []graph.Edge{{U: 0, V: 140}, {U: 5, V: 120}, {U: 7, V: 99}, {U: 3, V: 88}}
	for _, e := range add {
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("test edge %v already present; pick others", e)
		}
	}
	a := newSessionFor(t, g, dyngraph.Options{})
	if _, err := a.BatchInsert(add, false); err != nil {
		t.Fatal(err)
	}
	b := newSessionFor(t, g, dyngraph.Options{})
	for _, e := range add {
		if _, err := b.InsertStar(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for v := range a.Core() {
		if a.Core()[v] != b.Core()[v] {
			t.Fatalf("core(%d): batch %d, sequential %d", v, a.Core()[v], b.Core()[v])
		}
	}
	if err := a.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertBoundConverges checks the bound a bulk insert could start
// from (ROADMAP item 19): one inserted edge raises any core number by at
// most 1, so after I fresh inserts every core rises by at most I and stays
// at most the node's new degree, and SemiCore* from min(deg', core + I)
// converges to IMCore's cores of the new graph — the end state
// BatchInsert reaches one edge at a time.
func TestInsertBoundConverges(t *testing.T) {
	families := map[string]func(seed int64) []graph.Edge{
		"er":     func(seed int64) []graph.Edge { return gen.ErdosRenyi(250, 700, seed) },
		"ba":     func(seed int64) []graph.Edge { return gen.BarabasiAlbert(300, 4, seed) },
		"rmat":   func(seed int64) []graph.Edge { return gen.RMAT(8, 6, 0.57, 0.19, 0.19, seed) },
		"social": func(seed int64) []graph.Edge { return gen.Social(250, 3, 10, 9, seed) },
	}
	for name, edges := range families {
		for seed := int64(1); seed <= 3; seed++ {
			for _, inserts := range []int{1, 10, 100} {
				t.Run(fmt.Sprintf("%s/seed=%d/I=%d", name, seed, inserts), func(t *testing.T) {
					g := gen.Build(edges(seed))
					n := g.NumNodes()
					core := imcore.Decompose(g, nil).Core
					r := rand.New(rand.NewSource(seed))
					var fresh []graph.Edge
					for len(fresh) < inserts {
						e := graph.Edge{U: uint32(r.Intn(int(n))), V: uint32(r.Intn(int(n)))}
						if e.U != e.V && !g.HasEdge(e.U, e.V) && !slices.ContainsFunc(fresh, func(f graph.Edge) bool {
							return f == e || f == graph.Edge{U: e.V, V: e.U}
						}) {
							fresh = append(fresh, e)
						}
					}
					after, err := memgraph.FromEdges(n, append(g.EdgeList(), fresh...))
					if err != nil {
						t.Fatal(err)
					}
					want := imcore.Decompose(after, nil).Core
					bound := make([]uint32, n)
					for v := range n {
						if want[v] > core[v]+uint32(inserts) || want[v] > after.Degree(v) {
							t.Fatalf("node %d: core %d → %d after %d inserts, degree %d", v, core[v], want[v], inserts, after.Degree(v))
						}
						bound[v] = min(after.Degree(v), core[v]+uint32(inserts))
					}
					res, err := semicore.SemiCoreStarFrom(after, bound, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(res.Core, want) {
						t.Fatalf("SemiCore* from min(deg', core + %d) gives %v, IMCore %v", inserts, res.Core, want)
					}
					s := newSessionFor(t, g, dyngraph.Options{})
					if _, err := s.BatchInsert(fresh, false); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(s.Core(), want) {
						t.Fatalf("BatchInsert gives %v, IMCore %v", s.Core(), want)
					}
				})
			}
		}
	}
}
