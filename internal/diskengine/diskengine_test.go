package diskengine_test

import (
	"sort"
	"testing"

	"kcore"
	"kcore/internal/diskengine"
	"kcore/internal/memgraph"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// adjacency builds the sorted neighbour map of an edge list.
func adjacency(edges []memgraph.Edge) map[uint32][]uint32 {
	adj := make(map[uint32][]uint32)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	return adj
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkStore compares every node's merged neighbour list against the
// mirror adjacency.
func checkStore(t *testing.T, st *diskengine.Store, n uint32, adj map[uint32][]uint32, when string) {
	t.Helper()
	for v := uint32(0); v < n; v++ {
		got, err := st.Neighbors(v)
		if err != nil {
			t.Fatalf("%s: Neighbors(%d): %v", when, v, err)
		}
		if !equalU32(got, adj[v]) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", when, v, got, adj[v])
		}
	}
}

// TestStoreServesBaseGraph checks that the partition layout round-trips
// the fixture graph through a cache far smaller than the adjacency, and
// that the overlay plus forced merges preserve the merged view exactly.
func TestStoreServesBaseGraph(t *testing.T) {
	const n = 200
	seed := testutil.Seed(t, 7)
	base, edges := testutil.WriteSocial(t, n, seed)

	// 4 frames of 512 bytes = 2 KiB resident adjacency, far below the
	// fixture's arcs*4 bytes.
	st, err := diskengine.BuildStore(base, diskengine.StoreOptions{
		Dir:           t.TempDir(),
		CacheBlocks:   4,
		PartitionArcs: 64,
		OverlayArcs:   96,
		IO:            stats.NewIOCounter(512),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Partitions() < 4 {
		t.Fatalf("Partitions() = %d, want several at PartitionArcs=64", st.Partitions())
	}
	if st.NumEdges() != int64(len(edges)) {
		t.Fatalf("NumEdges() = %d, want %d", st.NumEdges(), len(edges))
	}
	checkStore(t, st, n, adjacency(edges), "after build")

	// Mutate through the overlay; the small OverlayArcs threshold forces
	// partition merges mid-stream.
	stream := testutil.NewMutationStream(n, seed, edges)
	mutate(t, st, stream, 400)
	live := stream.Live()
	if st.NumEdges() != int64(len(live)) {
		t.Fatalf("NumEdges() = %d, want %d after mutations", st.NumEdges(), len(live))
	}
	checkStore(t, st, n, adjacency(live), "after mutations")

	ds := st.DiskStats()
	if ds.Merges == 0 {
		t.Fatalf("no overlay merges at OverlayArcs=96 over 400 mutations: %+v", ds)
	}
	if err := st.MergeOverlay(); err != nil {
		t.Fatal(err)
	}
	if got := st.DiskStats().OverlayArcs; got != 0 {
		t.Fatalf("OverlayArcs = %d after MergeOverlay, want 0", got)
	}
	checkStore(t, st, n, adjacency(live), "after final merge")

	// Invalid mutations must be rejected without corrupting the view.
	if err := st.InsertEdge(3, 3); err == nil {
		t.Fatal("self-loop insert accepted")
	}
	if err := st.DeleteEdge(n+5, 0); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	checkStore(t, st, n, adjacency(live), "after rejected mutations")
}

// TestEngineMatchesMemOracle drives the disk engine and the in-memory
// maintainer through the same valid mutation stream, comparing core
// arrays at every sync point. Cache and overlay are sized small enough
// that block eviction and partition merges both happen mid-test.
func TestEngineMatchesMemOracle(t *testing.T) {
	const n = 300
	seed := testutil.Seed(t, 11)
	base, edges := testutil.WriteSocial(t, n, seed)

	eng, err := diskengine.Open(base, diskengine.Options{
		Dir:         t.TempDir(),
		CacheBlocks: 8,
		BlockSize:   512,
		OverlayArcs: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	og, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer og.Close()
	oracle, err := kcore.NewMaintainer(og, nil)
	if err != nil {
		t.Fatal(err)
	}

	compare := func(when string) {
		t.Helper()
		got := eng.Snapshot().Cores()
		want := oracle.Cores()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: core[%d] = %d, oracle %d", when, v, got[v], want[v])
			}
		}
	}
	compare("initial")

	stream := testutil.NewMutationStream(n, seed+1, edges)
	for round := 0; round < 8; round++ {
		for i := 0; i < 25; i++ {
			mut := stream.NextValid()
			e := []kcore.Edge{{U: mut.U, V: mut.V}}
			if mut.Op == testutil.OpInsert {
				err = eng.Enqueue(serve.Update{Op: serve.OpInsert, U: mut.U, V: mut.V})
				if err == nil {
					_, err = oracle.InsertEdges(e)
				}
			} else {
				err = eng.Enqueue(serve.Update{Op: serve.OpDelete, U: mut.U, V: mut.V})
				if err == nil {
					_, err = oracle.DeleteEdges(e)
				}
			}
			if err != nil {
				t.Fatalf("round %d mutation %d: %v", round, i, err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		compare("after round")
	}

	ds := eng.DiskStats()
	if ds.CacheEvictions == 0 {
		t.Errorf("no cache evictions at 8x512B cache: %+v", ds)
	}
	if ds.Merges == 0 {
		t.Errorf("no overlay merges at OverlayArcs=128: %+v", ds)
	}
	if eng.BackendType() != "disk" {
		t.Errorf("BackendType() = %q", eng.BackendType())
	}
	if eng.IOStats().Total() == 0 {
		t.Error("IOStats().Total() = 0, disk backend should measure I/O")
	}
}
