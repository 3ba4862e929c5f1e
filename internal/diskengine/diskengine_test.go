package diskengine_test

import (
	"os"
	"sort"
	"testing"

	"kcore"
	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/memgraph"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// openStore lays the graph at base out into partitions (block size as
// given) and layers an update buffer of bufferArcs over them.
func openStore(tb testing.TB, base string, blockSize, bufferArcs int, o diskengine.Options) (*dyngraph.Graph, *diskengine.Store) {
	tb.Helper()
	st, err := diskengine.Open(base, stats.NewIOCounter(blockSize), o)
	if err != nil {
		tb.Fatal(err)
	}
	g := dyngraph.New(st, dyngraph.Options{BufferArcs: bufferArcs})
	tb.Cleanup(func() { g.Close() })
	return g, st
}

// diskEngine is a serving session over a kcore.Graph on partitions: what
// kcored -backend disk runs.
type diskEngine struct {
	*serve.ConcurrentSession
	g *kcore.Graph
}

func (e diskEngine) DiskStats() stats.DiskSnapshot { return *e.g.DiskStats() }

// openEngine opens base with a block cache of cacheBlocks blocks (in a
// partition directory of the test's) and starts a session over it.
func openEngine(tb testing.TB, base string, cacheBlocks, blockSize, bufferArcs int, so *serve.Options) diskEngine {
	tb.Helper()
	g, err := kcore.Open(base, &kcore.OpenOptions{
		BlockSize:  blockSize,
		BufferArcs: bufferArcs,
		Partitions: &kcore.PartitionOptions{Dir: tb.TempDir(), CacheBlocks: cacheBlocks},
	})
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := serve.New(g, so)
	if err != nil {
		g.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		sess.Close()
		g.Close()
	})
	return diskEngine{sess, g}
}

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
func checkStore(t *testing.T, g *dyngraph.Graph, n uint32, adj map[uint32][]uint32, when string) {
	t.Helper()
	var got []uint32
	for v := uint32(0); v < n; v++ {
		var err error
		got, err = g.Neighbors(v, got)
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
	st, parts := openStore(t, base, 512, 96, diskengine.Options{
		Dir:           t.TempDir(),
		CacheBlocks:   4,
		PartitionArcs: 64,
	})
	if ds := parts.DiskStats(); ds.Partitions < 4 {
		t.Fatalf("%d partitions, want several at PartitionArcs=64", ds.Partitions)
	}
	if st.NumEdges() != int64(len(edges)) {
		t.Fatalf("NumEdges() = %d, want %d", st.NumEdges(), len(edges))
	}
	checkStore(t, st, n, adjacency(edges), "after build")

	// Mutate through the overlay; the small BufferArcs threshold forces
	// partition merges mid-stream.
	stream := testutil.NewMutationStream(n, seed, edges)
	mutate(t, st, stream, 400)
	live := stream.Live()
	if st.NumEdges() != int64(len(live)) {
		t.Fatalf("NumEdges() = %d, want %d after mutations", st.NumEdges(), len(live))
	}
	checkStore(t, st, n, adjacency(live), "after mutations")

	ds := parts.DiskStats()
	if ds.Merges == 0 {
		t.Fatalf("no overlay merges at BufferArcs=96 over 400 mutations: %+v", ds)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.BufferedArcs(); got != 0 {
		t.Fatalf("%d arcs buffered after Compact, want 0", got)
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

// TestStoreOwnsDefaultDir is the driver's close rule: partitions are a
// private projection of the graph at base, so a store left to pick its
// directory removes it at Close, edits merged into it included, and the
// tables at base are never written.
func TestStoreOwnsDefaultDir(t *testing.T) {
	const n = 120
	seed := testutil.Seed(t, 9)
	base, edges := testutil.WriteSocial(t, n, seed)
	before, err := os.ReadFile(base + ".et")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := openStore(t, base, 512, 16, diskengine.Options{})
	if _, err := os.Stat(base + ".parts"); err != nil {
		t.Fatalf("the default partition directory: %v", err)
	}
	mutate(t, st, testutil.NewMutationStream(n, seed, edges), 40)
	if st.Compactions == 0 || st.BufferedArcs() == 0 {
		t.Fatalf("fixture: %d compactions, %d arcs buffered; want both non-zero", st.Compactions, st.BufferedArcs())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".parts"); !os.IsNotExist(err) {
		t.Errorf("the store's own directory survived Close: %v", err)
	}
	if after, err := os.ReadFile(base + ".et"); err != nil || string(after) != string(before) {
		t.Errorf("the edge table at base changed under a partitioned graph (%v)", err)
	}
}

// TestEngineMatchesMemOracle drives the disk engine and the in-memory
// maintainer through the same valid mutation stream, comparing core
// arrays at every sync point. Cache and overlay are sized small enough
// that block eviction and partition merges both happen mid-test.
func TestEngineMatchesMemOracle(t *testing.T) {
	const n = 300
	seed := testutil.Seed(t, 11)
	base, edges := testutil.WriteSocial(t, n, seed)

	eng := openEngine(t, base, 8, 512, 128, nil)

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
		t.Errorf("no overlay merges at BufferArcs=128: %+v", ds)
	}
	if b := eng.Report().Backend; b != "disk" {
		t.Errorf("Report().Backend = %q", b)
	}
	if eng.IOStats().Total() == 0 {
		t.Error("IOStats().Total() = 0, disk backend should measure I/O")
	}
}
