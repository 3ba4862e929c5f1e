package diskengine_test

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"kcore/internal/diskengine"
	"kcore/internal/gen"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// mutate applies count valid mutations of the stream to the store.
func mutate(t *testing.T, st *diskengine.Store, stream *testutil.MutationStream, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		mut := stream.NextValid()
		var err error
		if mut.Op == testutil.OpInsert {
			err = st.InsertEdge(mut.U, mut.V)
		} else {
			err = st.DeleteEdge(mut.U, mut.V)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

// partFiles lists the partition files currently in dir.
func partFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "part-*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}

// TestStoreReadsDoNotAllocate guards the neighbour-read path: with the
// scratch buffers warm, Neighbors and HasEdge — cache hits, cache
// misses with eviction, and overlay merges alike — allocate nothing.
// (A fresh []byte per list read used to be 83% of all bytes the disk
// backend allocated under a write workload.)
func TestStoreReadsDoNotAllocate(t *testing.T) {
	const n = 300
	seed := testutil.Seed(t, 13)
	base, edges := testutil.WriteSocial(t, n, seed)
	st, err := diskengine.BuildStore(base, diskengine.StoreOptions{
		Dir:         t.TempDir(),
		CacheBlocks: 4, // far below the adjacency: the sweep below evicts constantly
		IO:          stats.NewIOCounter(512),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mutate(t, st, testutil.NewMutationStream(n, seed, edges), 60) // a populated overlay: merged reads too

	sweep := func() {
		for v := uint32(0); v < n; v++ {
			if _, err := st.Neighbors(v); err != nil {
				t.Fatal(err)
			}
			if _, err := st.HasEdge(v, (v+7)%n); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // grow every scratch buffer to the largest list
	before := st.DiskStats()
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Errorf("a sweep of Neighbors+HasEdge over %d nodes allocates %.0f times, want 0", n, allocs)
	}
	after := st.DiskStats()
	if after.CacheEvictions == before.CacheEvictions || after.OverlayArcs == 0 {
		t.Errorf("the sweep did not exercise misses and overlay merges: %+v", after)
	}
}

// scanView collects a view's adjacency, checking the order contract.
func scanView(t *testing.T, vw *diskengine.View, io *stats.IOCounter) map[uint32][]uint32 {
	t.Helper()
	adj := make(map[uint32][]uint32)
	next := uint32(0)
	err := vw.Scan(io, func(v uint32, nbrs []uint32) error {
		if v != next {
			t.Fatalf("Scan visited node %d, want %d (id order, every node)", v, next)
		}
		next++
		if len(nbrs) > 0 {
			adj[v] = slices.Clone(nbrs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != vw.NumNodes() {
		t.Fatalf("Scan stopped at node %d of %d", next, vw.NumNodes())
	}
	return adj
}

// TestViewOutlivesMerges pins a view over a store with a populated
// overlay, keeps mutating — through forced merges that replace every
// partition generation the view references — and then streams the view:
// it must yield exactly the adjacency of the pin instant, without one
// read charged to the store's counter or one lookup in its block cache,
// and the replaced generation files must stay on disk until Release and
// be gone after it.
func TestViewOutlivesMerges(t *testing.T) {
	const n = 200
	seed := testutil.Seed(t, 17)
	base, edges := testutil.WriteSocial(t, n, seed)
	dir := t.TempDir()
	st, err := diskengine.BuildStore(base, diskengine.StoreOptions{
		Dir:           dir,
		CacheBlocks:   4,
		PartitionArcs: 64,
		OverlayArcs:   1 << 20, // merges happen only where the test forces them
		IO:            stats.NewIOCounter(512),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stream := testutil.NewMutationStream(n, seed, edges)
	mutate(t, st, stream, 80)

	pinned := stream.Live()
	pinnedFiles := partFiles(t, dir)
	vw := st.Pin()
	if vw.NumArcs() != 2*int64(len(pinned)) {
		t.Fatalf("view reports %d arcs, want %d", vw.NumArcs(), 2*len(pinned))
	}

	for round := 0; round < 3; round++ {
		mutate(t, st, stream, 120)
		if err := st.MergeOverlay(); err != nil {
			t.Fatal(err)
		}
	}
	checkStore(t, st, n, adjacency(stream.Live()), "store after the merges")
	for _, f := range pinnedFiles {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("a pinned generation was unlinked under the view: %v", err)
		}
	}

	ioBefore, cacheBefore := st.IOCounter().Snapshot(), st.Cache().Stats()
	walIO := stats.NewIOCounter(4096) // any block size: the view reads at the store's
	got := scanView(t, vw, walIO)
	want := adjacency(pinned)
	for v := uint32(0); v < n; v++ {
		if !equalU32(got[v], want[v]) {
			t.Fatalf("view list of %d = %v, want the pin-time %v", v, got[v], want[v])
		}
	}
	if io := st.IOCounter().Snapshot(); io != ioBefore {
		t.Errorf("the scan moved the store's I/O counter: %+v -> %+v", ioBefore, io)
	}
	if cs := st.Cache().Stats(); cs != cacheBefore {
		t.Errorf("the scan went through the store's block cache: %+v -> %+v", cacheBefore, cs)
	}
	var fileBlocks int64
	for _, f := range pinnedFiles {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		fileBlocks += (fi.Size() + 511) / 512
	}
	// Sequential: every block once, plus at most the one block per
	// partition that the edge and record regions share.
	if reads := walIO.Snapshot().Reads; reads < fileBlocks || reads > fileBlocks+int64(len(pinnedFiles)) {
		t.Errorf("the scan read %d blocks of a %d-block view (%d partitions)", reads, fileBlocks, len(pinnedFiles))
	}

	vw.Release()
	current := partFiles(t, dir)
	for _, f := range pinnedFiles {
		if _, err := os.Stat(f); err == nil && !slices.Contains(current, f) {
			t.Errorf("%s survived Release", f)
		}
	}
	for _, f := range current {
		if slices.Contains(pinnedFiles, f) {
			t.Errorf("%s is still current after three full merges — the test replaced nothing", f)
		}
	}
	if len(current) != st.Partitions() {
		t.Errorf("%d partition files on disk for %d partitions", len(current), st.Partitions())
	}
}

// TestViewDetectsDamage: the view's reader verifies the same per-block
// checksums the cache does, so a bit flip in a pinned partition fails
// the scan instead of reaching a checkpoint.
func TestViewDetectsDamage(t *testing.T) {
	const n = 120
	seed := testutil.Seed(t, 19)
	base, _ := testutil.WriteSocial(t, n, seed)
	dir := t.TempDir()
	st, err := diskengine.BuildStore(base, diskengine.StoreOptions{Dir: dir, PartitionArcs: 64, IO: stats.NewIOCounter(512)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	vw := st.Pin()
	defer vw.Release()

	victim := partFiles(t, dir)[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = vw.Scan(stats.NewIOCounter(512), func(uint32, []uint32) error { return nil })
	if err == nil {
		t.Fatal("the scan streamed a corrupted partition without noticing")
	}
}

// pinCost builds a store over a random graph of n nodes and m edges,
// buffers the same number of overlay updates, and reports what one Pin
// allocates and whether it touched the disk.
func pinCost(t *testing.T, n uint32, m int, seed int64) (allocBytes uint64, ioMoved bool) {
	t.Helper()
	csr := gen.Build(gen.ErdosRenyi(n, m, seed))
	st, err := diskengine.BuildStore(testutil.WriteCSR(t, csr), diskengine.StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mutate(t, st, testutil.NewMutationStream(n, seed+1, csr.EdgeList()), 500)

	ioBefore, cacheBefore := st.IOCounter().Snapshot(), st.Cache().Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vw := st.Pin()
	runtime.ReadMemStats(&ms1)
	vw.Release()
	return ms1.TotalAlloc - ms0.TotalAlloc, st.IOCounter().Snapshot() != ioBefore || st.Cache().Stats() != cacheBefore
}

// TestPinCostIndependentOfGraphSize bounds what the writer goroutine
// pays to capture a checkpoint view: no I/O at all, and allocation that
// follows the partition count and the overlay, not m — a graph with four
// times the edges (and the same overlay) pins for the same price, a
// small fraction of what copying its adjacency would take.
func TestPinCostIndependentOfGraphSize(t *testing.T) {
	const n, m = 4000, 30000
	seed := testutil.Seed(t, 29)
	small, moved1 := pinCost(t, n, m, seed)
	large, moved4 := pinCost(t, n, 4*m, seed)
	if moved1 || moved4 {
		t.Errorf("Pin performed I/O or cache lookups")
	}
	t.Logf("Pin allocates %d B at m=%d, %d B at m=%d", small, m, large, 4*m)
	const slack = 16 << 10
	if large > small+slack {
		t.Errorf("Pin allocates %d B at 4m but %d B at m: the capture scales with the graph", large, small)
	}
	if adjacency := uint64(4*m) * 8; large > adjacency/8 {
		t.Errorf("Pin allocates %d B, over an eighth of the %d B adjacency", large, adjacency)
	}
}
