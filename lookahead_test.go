package kcore_test

import (
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/verify"
)

// checkCounted asserts that core/cnt are the exact decomposition of the
// graph with the given edges and that no "not yet counted" marker (a
// negative cnt) survived.
func checkCounted(t *testing.T, when string, n uint32, edges []graph.Edge, core []uint32, cnt []int32) {
	t.Helper()
	csr, err := memgraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckAgainst(csr, core); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	want := verify.CntFor(csr, core)
	for v := range want {
		if cnt[v] < 0 {
			t.Fatalf("%s: cnt(%d) = %d, a first-pass marker survived", when, v, cnt[v])
		}
		if cnt[v] != want[v] {
			t.Fatalf("%s: cnt(%d) = %d, want %d", when, v, cnt[v], want[v])
		}
	}
}

// TestLookaheadIgnoresUncountedNeighbours pins the marker rule of the
// violation lookahead. SemiCore*'s first pass starts every non-isolated
// node as "not yet counted"; were that marker read as a real count below
// core(u), every neighbour of a regular graph would be priced one lower
// and K5 would collapse to core 3. The same graphs then go through the
// root Maintainer's start-up and a delete/insert round of a
// maintain.Session, where every counter must stay a real count —
// including an isolated node (cnt 0, core 0) gaining its first edge.
func TestLookaheadIgnoresUncountedNeighbours(t *testing.T) {
	var k5, ring []graph.Edge
	for u := uint32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5 = append(k5, graph.Edge{U: u, V: v})
		}
	}
	const ringN = 12
	for u := uint32(0); u < ringN; u++ {
		ring = append(ring,
			graph.Edge{U: u, V: (u + 1) % ringN},
			graph.Edge{U: u, V: (u + 2) % ringN})
	}
	// A triangle, a pendant edge, and three isolated nodes (3, 4, 7).
	islands := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 5, V: 6}}

	for _, tc := range []struct {
		name  string
		n     uint32
		edges []graph.Edge
		kmax  uint32
		extra []graph.Edge // inserted after the round, then deleted again
	}{
		{"K5", 5, k5, 4, nil},
		{"ring-lattice", ringN, ring, 4, nil},
		{"isolated", 8, islands, 2, []graph.Edge{{U: 3, V: 4}, {U: 3, V: 0}, {U: 7, V: 5}, {U: 7, V: 6}}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			csr, err := memgraph.FromEdges(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			res, err := semicore.SemiCoreStar(csr, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkCounted(t, "SemiCoreStar", tc.n, tc.edges, res.Core, res.Cnt)
			if got := verify.Kmax(res.Core); got != tc.kmax {
				t.Fatalf("kmax = %d, want %d", got, tc.kmax)
			}

			m, err := kcore.NewMaintainer(buildFrom(t, tc.edges, tc.n), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkCounted(t, "NewMaintainer", tc.n, tc.edges, m.Cores(), m.Cnt())

			dg, err := dyngraph.Open(testutil.WriteCSR(t, csr), stats.NewIOCounter(0), dyngraph.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer dg.Close()
			s, err := maintain.NewSession(dg, nil)
			if err != nil {
				t.Fatal(err)
			}
			live := append([]graph.Edge(nil), tc.edges...)
			check := func(when string) {
				t.Helper()
				checkCounted(t, when, tc.n, live, s.Core(), s.Cnt())
				if err := s.VerifyState(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			insert := func(i int, e graph.Edge) {
				t.Helper()
				op := s.InsertStar
				if i%2 == 1 {
					op = s.InsertTwoPhase
				}
				if _, err := op(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
				check("insert")
			}
			remove := func(e graph.Edge) {
				t.Helper()
				if _, err := s.DeleteStar(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				for i := range live {
					if live[i] == e {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				check("delete")
			}
			for i, e := range tc.edges {
				remove(e)
				insert(i, e)
			}
			for i, e := range tc.extra {
				insert(i, e)
			}
			for _, e := range tc.extra {
				remove(e)
			}
		})
	}
}

func TestMain(m *testing.M) { pins.Main(m) }

// gateGraph opens testutil's gate graph on its frames and returns it
// with the edges it was built from.
func gateGraph(t *testing.T) (*kcore.Graph, []kcore.Edge) {
	t.Helper()
	base, edges := testutil.GateGraph(t)
	g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: testutil.GateFrames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, edges
}

// TestDecompositionIOGate pins the decomposition I/O of the three
// semi-external algorithms on a fixed skewed graph. The counts are exact
// and repeat on every run, so the gate needs no tolerance: a change that
// makes any algorithm read another number of blocks, or SemiCore*
// compute another number of nodes, than the pinned figure fails here and
// has to justify a new pin. Each algorithm runs on a graph opened for it
// alone, so no count depends on the frames another algorithm left, and
// each pays the node-table blocks its degree pass reads into memory.
// SemiCore* makes its revisits on the gate's frames.
func TestDecompositionIOGate(t *testing.T) {
	for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic} {
		g, _ := gateGraph(t)
		res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d block reads, %d node computations, %d iterations",
			algo, res.Info.IO.Reads, res.Info.NodeComputations, res.Info.Iterations)
		pins.Check(t, algo.String()+".reads", res.Info.IO.Reads)
		if algo == kcore.SemiCoreStar {
			pins.Check(t, algo.String()+".computations", res.Info.NodeComputations)
		}
	}
}

// TestMaintenanceIOGate pins, beside the decomposition gate, the block
// reads of a fixed 100-edge round on the same graph: SemiDelete* of each
// edge, then SemiInsert* of each back, on the handle the start-up
// decomposition left. The counts are exact, like the decompositions'.
// In Build's peeling order SemiInsert*'s expansion, which follows one
// core level, scans a window of nodes of that core, which lie together.
func TestMaintenanceIOGate(t *testing.T) {
	g, edges := gateGraph(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	round := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
	rand.New(rand.NewSource(5)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	del, ins := deleteInsertRound(t, m, round[:100])
	t.Logf("100 deletes read %d blocks, 100 inserts %d", del, ins)
	pins.Check(t, "delete.reads", del)
	pins.Check(t, "insert.reads", ins)
}

// TestFoldBackStartIOGate pins a cold SemiCore* on the layout a fold-back
// leaves: the gate graph, 1,000 of its edges deleted and 1,000 fresh RMAT
// edges inserted, flushed into tables that keep Build's peeling order for
// the nodes while their lists no longer match it, and reopened on the
// gate's frames. On the fresh tables the pass is one; here both the
// violation lookahead and the cache-resident revisits save passes and
// reads, so deleting either fails this gate.
func TestFoldBackStartIOGate(t *testing.T) {
	g, edges := gateGraph(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	del := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
	live := make(map[kcore.Edge]bool, len(del))
	for _, e := range del {
		live[e] = true
	}
	rand.New(rand.NewSource(7)).Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
	del = del[:1000]
	if _, err := m.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	for _, e := range del {
		delete(live, e)
	}
	var ins []kcore.Edge
	for _, e := range gen.RMAT(13, 12, .57, .19, .19, 2) {
		e = kcore.Edge{U: min(e.U, e.V), V: max(e.U, e.V)}
		if e.U != e.V && !live[e] && len(ins) < 1000 {
			live[e] = true
			ins = append(ins, e)
		}
	}
	if _, err := m.InsertEdges(ins); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	cold, err := kcore.Open(g.Base(), &kcore.OpenOptions{CacheBlocks: testutil.GateFrames})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	res, err := kcore.Decompose(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := memgraph.FromEdges(g.NumNodes(), slices.Collect(maps.Keys(live)))
	if err != nil {
		t.Fatal(err)
	}
	if want := imcore.Decompose(csr, nil).Core; !slices.Equal(res.Core, want) || !slices.Equal(m.Cores(), want) {
		t.Fatal("cores after the fold-back differ from IMCore's")
	}
	t.Logf("cold SemiCore* after the fold-back: %d passes, %d block reads", res.Info.Iterations, res.Info.IO.Reads)
	pins.Check(t, "reads", res.Info.IO.Reads)
	pins.Check(t, "iterations", int64(res.Info.Iterations))
}

// TestExtractKCoreIOGate pins what materialising a k-core reads, on a
// fresh handle: the node table into the index, then one scan in layout
// order that reads the members' lists only — along Build's peeling order
// a suffix of the table, all of it at k = 1 and its tail at Kmax. The
// extracted graph is the k-core: its ids the members ascending, each list
// a member's neighbours of core ≥ k, relabelled.
func TestExtractKCoreIOGate(t *testing.T) {
	base, edges := testutil.GateGraph(t)
	csr := gen.Build(edges)
	core := imcore.Decompose(csr, nil).Core
	for _, leg := range []struct {
		name string
		k    uint32
	}{{"k=1", 1}, {"k=kmax", slices.Max(core)}} {
		g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: testutil.GateFrames})
		if err != nil {
			t.Fatal(err)
		}
		opened := g.IOStats().Reads
		out := filepath.Join(t.TempDir(), "core")
		members, err := g.ExtractKCore(core, leg.k, out)
		reads := g.IOStats().Reads - opened
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d members, %d block reads", leg.name, len(members), reads)
		pins.Check(t, leg.name+".reads", reads)

		var want []uint32
		for v, c := range core {
			if c >= leg.k {
				want = append(want, uint32(v))
			}
		}
		if !slices.Equal(members, want) {
			t.Fatalf("%s: %d members, want the %d nodes of core ≥ %d ascending", leg.name, len(members), len(want), leg.k)
		}
		sub, err := kcore.Open(out, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range members {
			nbrs, err := sub.Neighbors(uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			var got, inCore []uint32
			for _, u := range nbrs {
				got = append(got, members[u])
			}
			for _, u := range csr.Neighbors(v) {
				if core[u] >= leg.k {
					inCore = append(inCore, u)
				}
			}
			if !slices.Equal(got, inCore) {
				t.Fatalf("%s: node %d's list in the k-core is %v, want %v", leg.name, v, got, inCore)
			}
		}
		sub.Close()
	}
}
