package kcore_test

import (
	"math/rand"
	"testing"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/testutil"
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

// TestDecompositionIOGate pins the decomposition I/O of the three
// semi-external algorithms on a fixed skewed graph. The counts are exact
// and repeat on every run, so the gate needs no tolerance: a change that
// makes any algorithm read more blocks, or SemiCore* compute more nodes,
// than the pinned figure fails here and has to justify a new pin. Each
// algorithm runs on a graph opened for it alone, so no count depends on
// the frames another algorithm left, and each pays the 24 node-table
// blocks its degree pass reads into memory. SemiCore* makes its revisits
// on the default frames (734 reads and 8,040 computations on the printed
// schedule).
func TestDecompositionIOGate(t *testing.T) {
	edges := gen.RMAT(13, 12, .57, .19, .19, 1)
	for _, tc := range []struct {
		algo         kcore.Algorithm
		maxReads     int64
		maxNodeComps int64 // 0: not gated
	}{
		{kcore.SemiCoreStar, 465, 8451},
		{kcore.SemiCorePlus, 1316, 0},
		{kcore.SemiCoreBasic, 1428, 0},
	} {
		g := buildFrom(t, edges, 0)
		res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: tc.algo})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d block reads, %d node computations, %d iterations",
			tc.algo, res.Info.IO.Reads, res.Info.NodeComputations, res.Info.Iterations)
		if res.Info.IO.Reads > tc.maxReads {
			t.Errorf("%v read %d blocks, gate is %d", tc.algo, res.Info.IO.Reads, tc.maxReads)
		}
		if tc.maxNodeComps > 0 && res.Info.NodeComputations > tc.maxNodeComps {
			t.Errorf("%v computed %d nodes, gate is %d", tc.algo, res.Info.NodeComputations, tc.maxNodeComps)
		}
	}
}

// TestMaintenanceIOGate pins, beside the decomposition gate, the block
// reads of a fixed 100-edge round on the same graph: SemiDelete* of each
// edge, then SemiInsert* of each back, on the handle the start-up
// decomposition left. The counts are exact and gated as upper bounds,
// like the decompositions' (135 / 15,812 while node-table blocks were
// read through the frames; 89 / 12,912 while the start-up kept the
// printed pass schedule on the default frames, which its revisits leave
// holding other lists).
func TestMaintenanceIOGate(t *testing.T) {
	const maxDeleteReads, maxInsertReads = 95, 12916
	edges := gen.RMAT(13, 12, .57, .19, .19, 1)
	g := buildFrom(t, edges, 0)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	round := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
	rand.New(rand.NewSource(5)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	del, ins := deleteInsertRound(t, m, round[:100])
	t.Logf("100 deletes read %d blocks, 100 inserts %d", del, ins)
	if del > maxDeleteReads {
		t.Errorf("100 deletes read %d blocks, gate is %d", del, maxDeleteReads)
	}
	if ins > maxInsertReads {
		t.Errorf("100 inserts read %d blocks, gate is %d", ins, maxInsertReads)
	}
}
