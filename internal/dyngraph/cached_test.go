package dyngraph_test

import (
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
)

func TestMain(m *testing.M) { pins.Main(m) }

// openAt opens the tables at base with a counter of the given block size.
func openAt(tb testing.TB, base string, blockSize int, opts dyngraph.Options) (*dyngraph.Graph, *stats.IOCounter) {
	tb.Helper()
	ctr := stats.NewIOCounter(blockSize)
	g, err := dyngraph.Open(base, ctr, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { g.Close() })
	return g, ctr
}

// checkStore compares every node's merged neighbour list against the
// mirror adjacency.
func checkStore(t *testing.T, g *dyngraph.Graph, adj [][]uint32, when string) {
	t.Helper()
	var got []uint32
	for v := range adj {
		var err error
		got, err = g.Neighbors(uint32(v), got)
		if err != nil {
			t.Fatalf("%s: Neighbors(%d): %v", when, v, err)
		}
		if !slices.Equal(got, adj[v]) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", when, v, got, adj[v])
		}
	}
}

// TestStoreServesBaseGraph checks that the tables round-trip the fixture
// graph through a cache far smaller than the adjacency, and that the
// overlay plus forced merges preserve the merged view exactly.
func TestStoreServesBaseGraph(t *testing.T) {
	const n = 600
	seed := testutil.Seed(t, 7)
	base, edges := testutil.WriteSocial(t, n, seed)

	// 3 frames of 512 bytes = 1.5 KiB resident adjacency, well below the
	// fixture's encoded edge table. (On 200 nodes the table fit once the
	// node table, whose fold-back reads had evicted its blocks, took a
	// varint a node; 4 frames held half of it once lists took the Rice
	// form where it is shorter.)
	testutil.RequireSpill(t, base, 512, 3, 2)
	st, _ := openAt(t, base, 512, dyngraph.Options{BufferArcs: 96, CacheBlocks: 3})
	if st.NumEdges() != int64(len(edges)) {
		t.Fatalf("NumEdges() = %d, want %d", st.NumEdges(), len(edges))
	}
	checkStore(t, st, adjacency(n, edges), "after open")

	// Mutate through the overlay; the small BufferArcs threshold forces
	// merges mid-stream.
	stream := testutil.NewMutationStream(n, seed, edges)
	mutate(t, st, stream, 400)
	live := stream.Live()
	if st.NumEdges() != int64(len(live)) {
		t.Fatalf("NumEdges() = %d, want %d after mutations", st.NumEdges(), len(live))
	}
	checkStore(t, st, adjacency(n, live), "after mutations")

	ds := st.DiskStats()
	if ds.Merges == 0 || ds.MergedBytes == 0 || ds.CacheEvictions == 0 {
		t.Fatalf("no overlay merges or no evictions at BufferArcs=96, 3 frames, over 400 mutations: %+v", ds)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.BufferedArcs(); got != 0 {
		t.Fatalf("%d arcs buffered after Compact, want 0", got)
	}
	checkStore(t, st, adjacency(n, live), "after final merge")

	// Invalid mutations must be rejected without corrupting the view.
	if err := st.InsertEdge(3, 3); err == nil {
		t.Fatal("self-loop insert accepted")
	}
	if err := st.DeleteEdge(n+5, 0); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	checkStore(t, st, adjacency(n, live), "after rejected mutations")
}

// TestStoreReadsDoNotAllocate guards the neighbour-read path: with the
// scratch buffers warm, Neighbors and HasEdge — cache hits, cache
// misses with eviction, and overlay merges alike — allocate nothing.
// (A fresh []byte per list read used to be 83% of all bytes the disk
// backend allocated under a write workload.) Both legs read through
// frames their graph's encoded edge table overflows at least as many
// times as its 4-byte table overflowed the frames they had before (four
// of 512 bytes; the default 64 of 64 bytes), and the misses of the
// timed sweeps are pinned at the default seed. The cached leg's one
// frame is of 256 bytes: a table of Rice-coded lists, under a byte an
// arc, overflows one frame of 512 bytes by less than that ratio.
func TestStoreReadsDoNotAllocate(t *testing.T) {
	const n = 300
	seed := testutil.Seed(t, 13)
	base, edges := testutil.WriteSocial(t, n, seed)
	v1Bytes := float64(8 * len(edges)) // two arcs an edge, 4 bytes an arc
	run := func(t *testing.T, g *dyngraph.Graph, evictions func() int64) {
		mutate(t, g, testutil.NewMutationStream(n, seed, edges), 60) // a populated overlay: merged reads too
		var buf []uint32
		sweep := func() {
			for v := uint32(0); v < n; v++ {
				var err error
				if buf, err = g.Neighbors(v, buf); err != nil {
					t.Fatal(err)
				}
				if _, err := g.HasEdge(v, (v+7)%n); err != nil {
					t.Fatal(err)
				}
			}
		}
		sweep() // grow every scratch buffer to the largest list
		before := evictions()
		if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
			t.Errorf("a sweep of Neighbors+HasEdge over %d nodes allocates %.0f times, want 0", n, allocs)
		}
		if evictions() == before || g.BufferedArcs() == 0 {
			t.Errorf("the sweep did not exercise misses (%d evictions before, %d after) and overlay merges (%d arcs buffered)",
				before, evictions(), g.BufferedArcs())
		}
		if seed == 13 {
			pins.Check(t, "misses", evictions()-before)
		}
	}
	t.Run("cached", func(t *testing.T) {
		// One frame, far below the adjacency: the sweep evicts constantly.
		testutil.RequireSpill(t, base, 256, 1, v1Bytes/(512*4))
		g, _ := openAt(t, base, 256, dyngraph.Options{CacheBlocks: 1})
		run(t, g, func() int64 { return g.DiskStats().CacheEvictions })
	})
	t.Run("uncached", func(t *testing.T) {
		// 13 frames at B=64 hold 832 bytes, below the edge table: every
		// block they drop is a re-read.
		testutil.RequireSpill(t, base, 64, 13, v1Bytes/(64*64))
		g, ctr := openAt(t, base, 64, dyngraph.Options{CacheBlocks: 13})
		run(t, g, ctr.Reads)
	})
}
