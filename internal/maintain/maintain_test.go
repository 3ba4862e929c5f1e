package maintain

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/verify"
)

// newSessionFor materialises a CSR on disk and opens a maintenance session.
func newSessionFor(t *testing.T, g *memgraph.CSR, opts dyngraph.Options) *Session {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, g, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	dg, err := dyngraph.Open(base, stats.NewIOCounter(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dg.Close() })
	s, err := NewSession(dg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type traceRecorder struct {
	rows     [][]uint32
	computed [][]uint32
}

func (tr *traceRecorder) reset() { tr.rows, tr.computed = nil, nil }

func (tr *traceRecorder) fn() func(int, []uint32, []uint32) {
	return func(iter int, computed []uint32, core []uint32) {
		tr.rows = append(tr.rows, append([]uint32(nil), core...))
		tr.computed = append(tr.computed, append([]uint32(nil), computed...))
	}
}

func wantRow(t *testing.T, iter int, got, want []uint32) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iteration %d row = %v, want %v", iter, got, want)
	}
}

// TestFig6DeleteTrace replays Example 5.1 / Fig. 6: deleting (v0,v1) from
// the converged Fig. 1 graph needs exactly 1 iteration and 4 node
// computations, dropping v0..v3 to core 2.
func TestFig6DeleteTrace(t *testing.T) {
	s := newSessionFor(t, gen.SampleGraph(), dyngraph.Options{})
	// Example 5.1 precondition: cnt(v0) and cnt(v1) start at 3.
	if s.Cnt()[0] != 3 || s.Cnt()[1] != 3 {
		t.Fatalf("initial cnt(v0)=%d cnt(v1)=%d, want 3/3", s.Cnt()[0], s.Cnt()[1])
	}
	var tr traceRecorder
	s.Trace = tr.fn()
	rs, err := s.DeleteStar(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1 (Example 5.1)", rs.Iterations)
	}
	if rs.NodeComputations != 4 {
		t.Fatalf("node computations = %d, want 4 (Example 5.1)", rs.NodeComputations)
	}
	wantRow(t, 1, tr.rows[0], []uint32{2, 2, 2, 2, 2, 2, 2, 2, 1})
	if fmt.Sprint(tr.computed[0]) != fmt.Sprint([]uint32{0, 1, 2, 3}) {
		t.Fatalf("computed = %v, want [0 1 2 3]", tr.computed[0])
	}
	if err := s.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestFig7InsertTwoPhaseTrace replays Example 5.2 / Fig. 7: after deleting
// (v0,v1), inserting (v4,v6) with SemiInsert takes three candidate
// iterations (1.1-1.3), one converge iteration (2.1) and 12 node
// computations in total.
func TestFig7InsertTwoPhaseTrace(t *testing.T) {
	s := newSessionFor(t, gen.SampleGraph(), dyngraph.Options{})
	if _, err := s.DeleteStar(0, 1); err != nil {
		t.Fatal(err)
	}
	var tr traceRecorder
	s.Trace = tr.fn()
	rs, err := s.InsertTwoPhase(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4 (3 candidate + 1 converge)", rs.Iterations)
	}
	if rs.NodeComputations != 12 {
		t.Fatalf("node computations = %d, want 12 (Example 5.2)", rs.NodeComputations)
	}
	wantRows := [][]uint32{
		{2, 2, 2, 2, 3, 3, 3, 3, 1}, // 1.1: v4..v7 raised
		{2, 2, 3, 3, 3, 3, 3, 3, 1}, // 1.2: v2, v3 raised
		{3, 3, 3, 3, 3, 3, 3, 3, 1}, // 1.3: v0, v1 raised
		{2, 2, 2, 3, 3, 3, 3, 2, 1}, // 2.1: converge drops v0,v1,v2,v7
	}
	wantComputed := [][]uint32{{4, 5, 6, 7}, {2, 3}, {0, 1}, {0, 1, 2, 7}}
	for i := range wantRows {
		wantRow(t, i+1, tr.rows[i], wantRows[i])
		if fmt.Sprint(tr.computed[i]) != fmt.Sprint(wantComputed[i]) {
			t.Fatalf("iteration %d computed %v, want %v", i+1, tr.computed[i], wantComputed[i])
		}
	}
	if err := s.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestFig8InsertStarTrace replays Example 5.3 / Fig. 8: the one-phase
// SemiInsert* handles the same insertion with 2 iterations and 5 node
// computations, raising exactly v3..v6.
func TestFig8InsertStarTrace(t *testing.T) {
	s := newSessionFor(t, gen.SampleGraph(), dyngraph.Options{})
	if _, err := s.DeleteStar(0, 1); err != nil {
		t.Fatal(err)
	}
	var tr traceRecorder
	s.Trace = tr.fn()
	rs, err := s.InsertStar(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2 (Example 5.3)", rs.Iterations)
	}
	if rs.NodeComputations != 5 {
		t.Fatalf("node computations = %d, want 5 (Example 5.3)", rs.NodeComputations)
	}
	// Iteration 1 computes v4, v5, v6 (all to sqrt); iteration 2 computes
	// v2 (to x) and v3 (to sqrt).
	if fmt.Sprint(tr.computed[0]) != fmt.Sprint([]uint32{4, 5, 6}) {
		t.Fatalf("iteration 1 computed %v, want [4 5 6]", tr.computed[0])
	}
	if fmt.Sprint(tr.computed[1]) != fmt.Sprint([]uint32{2, 3}) {
		t.Fatalf("iteration 2 computed %v, want [2 3]", tr.computed[1])
	}
	wantRow(t, 2, tr.rows[1], []uint32{2, 2, 2, 3, 3, 3, 3, 2, 1})
	if err := s.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

func corpus(tb testing.TB) map[string]*memgraph.CSR {
	tb.Helper()
	return map[string]*memgraph.CSR{
		"sample": gen.SampleGraph(),
		"er":     gen.Build(gen.ErdosRenyi(250, 700, 61)),
		"ba":     gen.Build(gen.BarabasiAlbert(300, 4, 63)),
		"rmat":   gen.Build(gen.RMAT(8, 6, 0.57, 0.19, 0.19, 65)),
		"social": gen.Build(gen.Social(250, 3, 10, 9, 67)),
		"web":    gen.Build(gen.WebGraph(6, 4, 6, 20, 69)),
	}
}

// TestMaintenanceRandomChurn drives both insertion algorithms and the
// deletion algorithm through long random edit sequences, checking the
// maintained cores against from-scratch references and the cnt invariant
// after every operation. Every node an iteration recomputes must enter it
// with an estimate of at most deg+1, the bound that keeps the recompute
// kernel's histogram clear O(deg) (semicore.Buf), and every
// operation must leave every status byte at φ.
func TestMaintenanceRandomChurn(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		for _, variant := range []string{"two-phase", "star"} {
			variant := variant
			t.Run(name+"/"+variant, func(t *testing.T) {
				s := newSessionFor(t, g, dyngraph.Options{})
				var prev []uint32 // the estimates an iteration starts from
				s.Trace = func(iter int, computed, core []uint32) {
					for _, v := range computed {
						d, err := s.G.Degree(v)
						if err != nil {
							t.Fatal(err)
						}
						if prev[v] > d+1 {
							t.Fatalf("iteration %d recomputed node %d from estimate %d at degree %d", iter, v, prev[v], d)
						}
					}
					prev = append(prev[:0], core...)
				}
				n := g.NumNodes()
				stream := testutil.NewMutationStream(n, testutil.Seed(t, 77), g.EdgeList())
				for i := 0; i < 50; i++ {
					prev = append(prev[:0], s.Core()...)
					mut := stream.NextValid()
					u, v := mut.U, mut.V
					var err error
					if mut.Op == testutil.OpDelete {
						_, err = s.DeleteStar(u, v)
					} else if variant == "two-phase" {
						_, err = s.InsertTwoPhase(u, v)
					} else {
						_, err = s.InsertStar(u, v)
					}
					if err != nil {
						t.Fatalf("op %d (%d,%d): %v", i, u, v, err)
					}
					if err := s.VerifyState(); err != nil {
						t.Fatalf("op %d (%d,%d): %v", i, u, v, err)
					}
					if x := slices.IndexFunc(s.status, func(b uint8) bool { return b != statusNone }); x >= 0 {
						t.Fatalf("op %d (%d,%d) left node %d at status %d", i, u, v, x, s.status[x])
					}
					want := referenceCores(t, n, stream.Live())
					for x := range want {
						if s.Core()[x] != want[x] {
							t.Fatalf("op %d (%d,%d): core(%d) = %d, want %d",
								i, u, v, x, s.Core()[x], want[x])
						}
					}
				}
			})
		}
	}
}

// TestInsertVariantsAgree runs the same random insertion sequence through
// SemiInsert and SemiInsert* sessions and demands identical cores and cnt
// after every step.
func TestInsertVariantsAgree(t *testing.T) {
	g := gen.Build(gen.BarabasiAlbert(200, 3, 81))
	a := newSessionFor(t, g, dyngraph.Options{})
	b := newSessionFor(t, g, dyngraph.Options{})
	r := rand.New(rand.NewSource(82))
	inserted := 0
	for inserted < 40 {
		u := uint32(r.Intn(200))
		v := uint32(r.Intn(200))
		if u == v {
			continue
		}
		if has, err := a.G.HasEdge(u, v); err != nil {
			t.Fatal(err)
		} else if has {
			continue
		}
		if _, err := a.InsertTwoPhase(u, v); err != nil {
			t.Fatal(err)
		}
		if _, err := b.InsertStar(u, v); err != nil {
			t.Fatal(err)
		}
		inserted++
		for x := range a.Core() {
			if a.Core()[x] != b.Core()[x] {
				t.Fatalf("after insert (%d,%d): cores diverge at %d: %d vs %d",
					u, v, x, a.Core()[x], b.Core()[x])
			}
			if a.Cnt()[x] != b.Cnt()[x] {
				t.Fatalf("after insert (%d,%d): cnt diverges at %d: %d vs %d",
					u, v, x, a.Cnt()[x], b.Cnt()[x])
			}
		}
	}
}

// TestInsertStarNeverMoreComputations checks the paper's headline claim
// for the optimised insertion: SemiInsert* performs no more node
// computations than SemiInsert on identical operations.
func TestInsertStarNeverMoreComputations(t *testing.T) {
	g := gen.Build(gen.Social(250, 3, 8, 8, 83))
	a := newSessionFor(t, g, dyngraph.Options{})
	b := newSessionFor(t, g, dyngraph.Options{})
	r := rand.New(rand.NewSource(84))
	var twoPhase, star int64
	inserted := 0
	for inserted < 40 {
		u := uint32(r.Intn(250))
		v := uint32(r.Intn(250))
		if u == v {
			continue
		}
		if has, err := a.G.HasEdge(u, v); err != nil {
			t.Fatal(err)
		} else if has {
			continue
		}
		ra, err := a.InsertTwoPhase(u, v)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.InsertStar(u, v)
		if err != nil {
			t.Fatal(err)
		}
		twoPhase += ra.NodeComputations
		star += rb.NodeComputations
		inserted++
	}
	if star > twoPhase {
		t.Fatalf("SemiInsert* computations %d > SemiInsert %d over %d inserts", star, twoPhase, inserted)
	}
}

// TestDeleteInsertRoundTrip deletes and reinserts the same 100 random
// edges (the paper's Fig. 10 workload) and expects the exact original
// state back.
func TestDeleteInsertRoundTrip(t *testing.T) {
	g := gen.Build(gen.RMAT(8, 8, 0.57, 0.19, 0.19, 85))
	s := newSessionFor(t, g, dyngraph.Options{})
	origCore := append([]uint32(nil), s.Core()...)
	origCnt := append([]int32(nil), s.Cnt()...)

	edges := g.EdgeList()
	r := rand.New(rand.NewSource(86))
	picked := make([]graph.Edge, 0, 100)
	for _, i := range r.Perm(len(edges))[:100] {
		picked = append(picked, edges[i])
	}
	for _, e := range picked {
		if _, err := s.DeleteStar(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range picked {
		if _, err := s.InsertStar(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for v := range origCore {
		if s.Core()[v] != origCore[v] {
			t.Fatalf("core(%d) = %d after round trip, want %d", v, s.Core()[v], origCore[v])
		}
		if s.Cnt()[v] != origCnt[v] {
			t.Fatalf("cnt(%d) = %d after round trip, want %d", v, s.Cnt()[v], origCnt[v])
		}
	}
}

// TestMaintenanceWithCompaction forces the update buffer to flush during
// the churn and checks nothing is lost across compactions.
func TestMaintenanceWithCompaction(t *testing.T) {
	g := gen.Build(gen.ErdosRenyi(150, 500, 87))
	s := newSessionFor(t, g, dyngraph.Options{BufferArcs: 16})
	stream := testutil.NewMutationStream(150, testutil.Seed(t, 88), g.EdgeList())
	for i := 0; i < 60; i++ {
		mut := stream.NextValid()
		var err error
		if mut.Op == testutil.OpDelete {
			_, err = s.DeleteStar(mut.U, mut.V)
		} else {
			_, err = s.InsertStar(mut.U, mut.V)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.G.FoldBacks() == 0 {
		t.Fatal("buffer never compacted despite a 16-arc limit")
	}
	if err := s.VerifyState(); err != nil {
		t.Fatal(err)
	}
	want := referenceCores(t, 150, stream.Live())
	for x := range want {
		if s.Core()[x] != want[x] {
			t.Fatalf("core(%d) = %d, want %d", x, s.Core()[x], want[x])
		}
	}
}

// TestTheoremDeltaBound verifies Theorem 3.1 for the semi-external
// algorithms: one update changes no core number by more than 1.
func TestTheoremDeltaBound(t *testing.T) {
	g := gen.Build(gen.ErdosRenyi(200, 700, 89))
	s := newSessionFor(t, g, dyngraph.Options{})
	stream := testutil.NewMutationStream(200, testutil.Seed(t, 90), g.EdgeList())
	for i := 0; i < 60; i++ {
		before := append([]uint32(nil), s.Core()...)
		mut := stream.NextValid()
		var err error
		if mut.Op == testutil.OpDelete {
			_, err = s.DeleteStar(mut.U, mut.V)
		} else {
			_, err = s.InsertStar(mut.U, mut.V)
		}
		if err != nil {
			t.Fatal(err)
		}
		for x := range before {
			d := int64(s.Core()[x]) - int64(before[x])
			if d < -1 || d > 1 {
				t.Fatalf("op %d: core(%d) jumped %d -> %d", i, x, before[x], s.Core()[x])
			}
		}
	}
}

func referenceCores(t *testing.T, n uint32, edges []graph.Edge) []uint32 {
	t.Helper()
	g, err := memgraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return verify.CoresByRepeatedRemoval(g)
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
