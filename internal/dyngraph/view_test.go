package dyngraph_test

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// openFDs counts the process's open file descriptors (Linux; -1 elsewhere).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestViewOutlivesCompaction: a view pinned with edits in the buffer
// keeps describing the adjacency of its pin while the graph is mutated
// past its buffer limit until every file the view reads has been
// replaced — new tables renamed over the old, twice — then streams
// exactly the pin-time lists, every block of the pinned edge table once,
// charged to the scan's counter and never to the graph's (or through
// its block cache), and gives its descriptors back at Release.
func TestViewOutlivesCompaction(t *testing.T) { onEachDriver(t, testViewOutlivesCompaction) }

func testViewOutlivesCompaction(t *testing.T, open driverOpen) {
	const n, limit = 200, 64
	seed := testutil.Seed(t, 23)
	csr := gen.Build(gen.Social(n, 3, 6, 6, seed))
	g := open(csr, dyngraph.Options{BufferArcs: limit})
	stream := testutil.NewMutationStream(n, seed+1, csr.EdgeList())
	mutate(t, g.Graph, stream, limit/4) // stays buffered: the view needs base and buffer both
	if g.BufferedArcs() == 0 || g.FoldBacks() != 0 {
		t.Fatalf("fixture: %d arcs buffered after %d compactions, want a non-empty buffer and none", g.BufferedArcs(), g.FoldBacks())
	}

	fdsBefore := openFDs()
	pinned := stream.Live()
	blockSize := int64(g.ctr.BlockSize())
	var fileBlocks int64
	for _, f := range g.files() {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		fileBlocks += (fi.Size() + blockSize - 1) / blockSize
	}
	vw, err := g.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if vw.NumNodes() != n || vw.NumArcs() != 2*int64(len(pinned)) {
		t.Fatalf("view reports %d nodes, %d arcs; want %d, %d", vw.NumNodes(), vw.NumArcs(), n, 2*len(pinned))
	}

	for g.FoldBacks() < 2 {
		mutate(t, g.Graph, stream, limit/2)
	}
	if slices.Equal(stream.Live(), pinned) {
		t.Fatal("fixture: the mutations after the pin changed nothing")
	}

	quiet := g.gauges()
	walIO := stats.NewIOCounter(4096) // any block size: the view reads at the graph's
	got := make([][]uint32, 0, n)
	vw.ChargeTo(walIO)
	if err := graph.ScanAll(vw, func(v uint32, nbrs []uint32) error {
		if int(v) != len(got) {
			t.Fatalf("Scan visited node %d, want %d (id order, every node)", v, len(got))
		}
		got = append(got, slices.Clone(nbrs))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("Scan stopped at node %d of %d", len(got), n)
	}
	for v, want := range adjacency(n, pinned) {
		if !slices.Equal(got[v], want) {
			t.Fatalf("view list of %d = %v, want the pin-time %v", v, got[v], want)
		}
	}
	if now := g.gauges(); now != quiet {
		t.Errorf("the scan moved the graph's own counters: %+v -> %+v", quiet, now)
	}
	// Sequential: every block once.
	if reads := walIO.Snapshot().Reads; reads != fileBlocks {
		t.Errorf("the scan read %d blocks of the %d-block pinned files", reads, fileBlocks)
	}

	vw.Release()
	if fds := openFDs(); fds != fdsBefore {
		t.Errorf("%d descriptors open after Release, %d before Pin", fds, fdsBefore)
	}
	if left, _ := filepath.Glob(g.base + ".compact.*"); len(left) != 0 {
		t.Errorf("rewrites left %v behind", left)
	}
	// The graph itself went on undisturbed.
	for v, want := range adjacency(n, stream.Live()) {
		if got, err := g.Neighbors(uint32(v), nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("graph list of %d = %v (%v), want %v", v, got, err, want)
		}
	}
}

// TestViewDetectsDamage: the scan checks every block it reads against
// the CRC32C recorded when the file was written, so a flipped neighbour
// id that every structural check passes (still sorted, in range, same
// length) fails the scan instead of reaching a checkpoint.
func TestViewDetectsDamage(t *testing.T) { onEachDriver(t, testViewDetectsDamage) }

func testViewDetectsDamage(t *testing.T, open driverOpen) {
	csr, err := memgraph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	g := open(csr, dyngraph.Options{})
	et, err := os.OpenFile(g.base+".et", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer et.Close()
	damageFirstList(t, et)
	vw, err := g.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Release()
	if err := graph.ScanAll(vw, func(uint32, []uint32) error { return nil }); err == nil {
		t.Fatal("the scan streamed corrupted edge data without noticing")
	}
}

// damageFirstList turns nbr(0) = [1 2], which opens the edge table as
// one Rice byte (k = 0: bits 0, 1 then 1, 0b110), into [0 1] (1 then 1,
// 0b011), in place: sorted, in range, of the same length and form.
func damageFirstList(t *testing.T, et *os.File) {
	t.Helper()
	b := []byte{0}
	if _, err := et.ReadAt(b, 0); err != nil || b[0] != 0b110 {
		t.Fatalf("fixture: the edge table opens with %#b (%v), want nbr(0) = [1 2] as 0b110", b[0], err)
	}
	if _, err := et.WriteAt([]byte{0b011}, 0); err != nil {
		t.Fatal(err)
	}
}

// pinCost opens a random graph of n nodes and m edges, buffers the given
// number of updates, and reports what one Pin allocates, how many arcs
// the buffer held, and whether the pin read a block or looked one up in
// a cache.
func pinCost(t *testing.T, open driverOpen, n uint32, m, updates int, seed int64) (allocBytes uint64, arcs int, ioMoved bool) {
	t.Helper()
	csr := gen.Build(gen.ErdosRenyi(n, m, seed))
	g := open(csr, dyngraph.Options{BufferArcs: 4 * updates})
	mutate(t, g.Graph, testutil.NewMutationStream(n, seed+1, csr.EdgeList()), updates)

	quiet := g.gauges()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vw, err := g.Pin()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	vw.Release()
	return ms1.TotalAlloc - ms0.TotalAlloc, g.BufferedArcs(), g.gauges() != quiet
}

// TestPinCostIndependentOfGraphSize bounds what the writer goroutine
// pays to capture a checkpoint view: no I/O at all, and allocation that
// follows the update buffer and the base's file count, not m — a graph
// with four times the edges (and the same buffer) pins for the same
// price, a small fraction of what copying its adjacency would take.
func TestPinCostIndependentOfGraphSize(t *testing.T) {
	onEachDriver(t, testPinCostIndependentOfGraphSize)
}

func testPinCostIndependentOfGraphSize(t *testing.T, open driverOpen) {
	const n, m = 4000, 30000
	seed := testutil.Seed(t, 29)
	small, _, moved1 := pinCost(t, open, n, m, 500, seed)
	large, _, moved4 := pinCost(t, open, n, 4*m, 500, seed)
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

// TestPinAllocatesEightBytesPerArc bounds the pin by the buffer's own
// size: the view takes one clone of each pointer-free key array, 8 B per
// buffered arc, plus a fixed slack for its two table handles, at any
// fill.
func TestPinAllocatesEightBytesPerArc(t *testing.T) {
	onEachDriver(t, testPinAllocatesEightBytesPerArc)
}

func testPinAllocatesEightBytesPerArc(t *testing.T, open driverOpen) {
	const n, m, slack = 4000, 30000, 32 << 10
	seed := testutil.Seed(t, 31)
	for _, updates := range []int{500, 8000} {
		alloc, arcs, _ := pinCost(t, open, n, m, updates, seed)
		t.Logf("Pin allocates %d B at %d buffered arcs (%.1f B per arc)", alloc, arcs, float64(alloc)/float64(arcs))
		if limit := 8*uint64(arcs) + slack; alloc > limit {
			t.Errorf("Pin allocates %d B at %d buffered arcs, over 8 B per arc + %d B", alloc, arcs, slack)
		}
	}
}
