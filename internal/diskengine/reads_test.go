package diskengine_test

import (
	"testing"

	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// mutate applies count valid mutations of the stream to the graph.
func mutate(t *testing.T, g *dyngraph.Graph, stream *testutil.MutationStream, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		mut := stream.NextValid()
		var err error
		if mut.Op == testutil.OpInsert {
			err = g.InsertEdge(mut.U, mut.V)
		} else {
			err = g.DeleteEdge(mut.U, mut.V)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

// TestStoreReadsDoNotAllocate guards the neighbour-read path: with the
// scratch buffers warm, Neighbors and HasEdge — cache hits, cache
// misses with eviction, and overlay merges alike — allocate nothing.
// (A fresh []byte per list read used to be 83% of all bytes the disk
// backend allocated under a write workload.) The read path above the
// driver is dyngraph.Graph's, shared with the CSR tables, so those are
// held to the same.
func TestStoreReadsDoNotAllocate(t *testing.T) {
	const n = 300
	seed := testutil.Seed(t, 13)
	base, edges := testutil.WriteSocial(t, n, seed)
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
	}
	t.Run("partitions", func(t *testing.T) {
		// Four frames, far below the adjacency: the sweep evicts constantly.
		g, st := openStore(t, base, 512, 0, diskengine.Options{Dir: t.TempDir(), CacheBlocks: 4})
		run(t, g, func() int64 { return st.DiskStats().CacheEvictions })
	})
	t.Run("csr", func(t *testing.T) {
		ctr := stats.NewIOCounter(512)
		g, err := dyngraph.Open(base, ctr, dyngraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		// A one-block buffer per table: every block it drops is a re-read.
		run(t, g, ctr.Reads)
	})
}
