package dyngraph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
)

// TestPropertyChurnEquivalence drives random edit sequences with random
// compaction thresholds against the in-memory mutable-adjacency oracle.
func TestPropertyChurnEquivalence(t *testing.T) { onEachDriver(t, testPropertyChurnEquivalence) }

func testPropertyChurnEquivalence(t *testing.T, open driverOpen) {
	f := func(seed int64, smallBuffer bool) bool {
		// Exactly 60 nodes whatever the sample: gen.Build sizes the graph
		// by its highest id, and a sample that misses node 59 (about one
		// in 150) used to fail the case on the first edit that drew it.
		src, err := memgraph.FromEdges(60, gen.ErdosRenyi(60, 150, seed))
		if err != nil {
			return false
		}
		buf := 1 << 30
		if smallBuffer {
			buf = 8
		}
		g := open(src, dyngraph.Options{BufferArcs: buf})
		ref := imcore.NewDynGraph(src)
		r := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 80; i++ {
			u := uint32(r.Intn(60))
			v := uint32(r.Intn(60))
			if u == v {
				continue
			}
			if has, err := g.HasEdge(u, v); err != nil {
				return false
			} else if has {
				if g.DeleteEdge(u, v) != nil || ref.Delete(u, v) != nil {
					return false
				}
			} else {
				if g.InsertEdge(u, v) != nil || ref.Insert(u, v) != nil {
					return false
				}
			}
		}
		return agrees(g.Graph, ref) == nil
	}
	rng := rand.New(rand.NewSource(testutil.Seed(t, 17)))
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// agrees compares the graph with the oracle on the edge count and every
// neighbour list and degree, read both ways: by node (Neighbors, Degree)
// and by the scans' forward walk over the buffer — one full Scan, one
// Scan from node 1 that skips two nodes in three, and one ScanDegrees
// pass.
func agrees(g *dyngraph.Graph, ref *imcore.DynGraph) error {
	if g.NumEdges() != ref.NumEdges() {
		return fmt.Errorf("m = %d, want %d", g.NumEdges(), ref.NumEdges())
	}
	n := ref.NumNodes()
	for v := uint32(0); v < n; v++ {
		got, err := g.Neighbors(v, nil)
		if err != nil {
			return err
		}
		if !slices.Equal(got, ref.Neighbors(v)) {
			return fmt.Errorf("nbr(%d) = %v, want %v", v, got, ref.Neighbors(v))
		}
		if d, err := g.Degree(v); err != nil || d != ref.Degree(v) {
			return fmt.Errorf("deg(%d) = %d (%v), want %d", v, d, err, ref.Degree(v))
		}
	}
	for _, sc := range []struct {
		vmin uint32
		want func(uint32) bool
	}{{0, nil}, {1, func(v uint32) bool { return v%3 == 0 }}} {
		var seen []uint32
		if err := g.ScanDynamic(sc.vmin, func() uint32 { return n - 1 }, sc.want, func(v uint32, nbrs []uint32) error {
			seen = append(seen, v)
			if !slices.Equal(nbrs, ref.Neighbors(v)) {
				return fmt.Errorf("scan from %d: nbr(%d) = %v, want %v", sc.vmin, v, nbrs, ref.Neighbors(v))
			}
			return nil
		}); err != nil {
			return err
		}
		var want []uint32
		for v := sc.vmin; v < n; v++ {
			if sc.want == nil || sc.want(v) {
				want = append(want, v)
			}
		}
		if !slices.Equal(seen, want) {
			return fmt.Errorf("scan from %d visited %v, want %v", sc.vmin, seen, want)
		}
	}
	next := uint32(0)
	if err := g.ScanDegrees(func(v, d uint32) error {
		if v != next || d != ref.Degree(v) {
			return fmt.Errorf("ScanDegrees: (%d, %d) at node %d, want degree %d", v, d, next, ref.Degree(next))
		}
		next++
		return nil
	}); err != nil {
		return err
	}
	if next != n {
		return fmt.Errorf("ScanDegrees stopped at node %d of %d", next, n)
	}
	return nil
}

// viewAgrees streams the view once and compares every list with pinned,
// the oracle's adjacency at the pin.
func viewAgrees(vw *dyngraph.View, pinned [][]uint32) error {
	next := 0
	if err := graph.ScanAll(vw, func(v uint32, nbrs []uint32) error {
		if int(v) != next || !slices.Equal(nbrs, pinned[v]) {
			return fmt.Errorf("view scan: nbr(%d) = %v at node %d, want %v", v, nbrs, next, pinned[next])
		}
		next++
		return nil
	}); err != nil {
		return err
	}
	if next != len(pinned) {
		return fmt.Errorf("view scan stopped at node %d of %d", next, len(pinned))
	}
	return nil
}

// TestPropertyRebase drives random edit streams with pins and adoptions
// at random points. Edits toggle edges of a small pool, so they keep
// cancelling each other across a pin: inserts undo pinned deletes,
// deletes undo pinned inserts. An adoption takes, as the base, the tables
// the checkpoint writer (storage.WriteGraph) makes of the view, and must
// leave exactly the edits made since the pin in the buffer; fold-backs
// in place between some pins and their adoptions make those views stale,
// and their adoption fails with ErrStale and changes nothing. After every
// step the graph agrees with imcore.DynGraph on every neighbour list and
// degree, and a live view's scan with the oracle's lists at its pin.
func TestPropertyRebase(t *testing.T) { onEachDriver(t, testPropertyRebase) }

func testPropertyRebase(t *testing.T, open driverOpen) {
	const n, steps = 40, 600
	seed := testutil.Seed(t, 71)
	r := rand.New(rand.NewSource(seed))
	src, err := memgraph.FromEdges(n, gen.ErdosRenyi(n, 120, seed))
	if err != nil {
		t.Fatal(err)
	}
	g := open(src, dyngraph.Options{BufferArcs: 1 << 30}) // fold-backs only where the test asks
	ref := imcore.NewDynGraph(src)
	pool := make([][2]uint32, 24)
	for i := range pool {
		u := uint32(r.Intn(n))
		pool[i] = [2]uint32{u, (u + 1 + uint32(r.Intn(n-1))) % n}
	}
	var (
		vw                *dyngraph.View
		pinned            [][]uint32 // ref's lists at vw's pin
		stale             bool       // a fold-back ran since vw's pin
		adopted, rejected int
	)
	defer func() {
		if vw != nil {
			vw.Release()
		}
	}()
	for i := 0; i < steps; i++ {
		switch x := r.Intn(16); {
		case x == 0 && vw == nil:
			if vw, err = g.Pin(); err != nil {
				t.Fatal(err)
			}
			pinned = make([][]uint32, n)
			for v := range pinned {
				pinned[v] = slices.Clone(ref.Neighbors(uint32(v)))
			}
		case x == 1 && vw != nil:
			tables := filepath.Join(t.TempDir(), "ckpt")
			if err := storage.WriteGraph(faultfs.OS, tables, vw, stats.NewIOCounter(512), false); err != nil {
				t.Fatal(err)
			}
			fb, buffered := g.FoldBacks(), g.BufferedArcs()
			switch err := g.Adopt(vw, tables); {
			case stale && errors.Is(err, dyngraph.ErrStale):
				if g.FoldBacks() != fb || g.BufferedArcs() != buffered {
					t.Fatalf("step %d: a stale adoption changed the graph", i)
				}
				rejected++
			case !stale && err == nil:
				adopted++
			default:
				t.Fatalf("step %d: adopting a view pinned %s a fold-back: %v", i, map[bool]string{true: "before", false: "after"}[stale], err)
			}
			vw.Release()
			vw, stale = nil, false
		case x == 2:
			if g.BufferedArcs() > 0 {
				if err := g.Compact(); err != nil {
					t.Fatal(err)
				}
				stale = vw != nil
			}
		default:
			e := pool[r.Intn(len(pool))]
			u, v := e[0], e[1]
			if ref.HasEdge(u, v) {
				err = errors.Join(g.DeleteEdge(u, v), ref.Delete(u, v))
			} else {
				err = errors.Join(g.InsertEdge(u, v), ref.Insert(u, v))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := agrees(g.Graph, ref); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if vw != nil {
			if err := viewAgrees(vw, pinned); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if adopted == 0 || rejected == 0 {
		t.Fatalf("fixture: %d adoptions and %d stale ones, want both kinds", adopted, rejected)
	}
	t.Logf("%d adoptions, %d stale", adopted, rejected)
}
