package dyngraph

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// mutate applies count valid mutations of the stream to the graph.
func mutate(t *testing.T, g *Graph, stream *testutil.MutationStream, count int) {
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

// adjacency turns an edge list into sorted per-node lists.
func adjacency(n uint32, edges []memgraph.Edge) [][]uint32 {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for _, l := range adj {
		slices.Sort(l)
	}
	return adj
}

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
// past its buffer limit twice — two compactions rename new tables over
// the ones the view reads — then streams exactly the pin-time lists,
// every block of the pinned tables once, charged to the scan's counter
// and not the graph's, and gives its handles back at Release.
func TestViewOutlivesCompaction(t *testing.T) {
	const n, limit = 200, 64
	seed := testutil.Seed(t, 23)
	csr := gen.Build(gen.Social(n, 3, 6, 6, seed))
	g, ctr := open(t, csr, Options{BufferArcs: limit})
	stream := testutil.NewMutationStream(n, seed+1, csr.EdgeList())
	mutate(t, g, stream, limit/4) // stays buffered: the view needs base and buffer both
	if g.BufferedArcs() == 0 || g.Compactions != 0 {
		t.Fatalf("fixture: %d arcs buffered after %d compactions, want a non-empty buffer and none", g.BufferedArcs(), g.Compactions)
	}

	fdsBefore := openFDs()
	pinned := stream.Live()
	var tableBlocks int64
	for _, ext := range []string{".nt", ".et"} {
		fi, err := os.Stat(g.base + ext)
		if err != nil {
			t.Fatal(err)
		}
		tableBlocks += (fi.Size() + int64(ctr.BlockSize()) - 1) / int64(ctr.BlockSize())
	}
	vw, err := g.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if vw.NumNodes() != n || vw.NumArcs() != 2*int64(len(pinned)) {
		t.Fatalf("view reports %d nodes, %d arcs; want %d, %d", vw.NumNodes(), vw.NumArcs(), n, 2*len(pinned))
	}

	for g.Compactions < 2 {
		mutate(t, g, stream, limit/2)
	}
	if slices.Equal(stream.Live(), pinned) {
		t.Fatal("fixture: the mutations after the pin changed nothing")
	}

	ioBefore := ctr.Snapshot()
	walIO := stats.NewIOCounter(ctr.BlockSize())
	got := make([][]uint32, 0, n)
	if err := vw.Scan(walIO, func(v uint32, nbrs []uint32) error {
		if int(v) != len(got) {
			t.Fatalf("Scan visited node %d, want %d", v, len(got))
		}
		got = append(got, slices.Clone(nbrs))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for v, want := range adjacency(n, pinned) {
		if !slices.Equal(got[v], want) {
			t.Fatalf("view list of %d = %v, want the pin-time %v", v, got[v], want)
		}
	}
	if io := ctr.Snapshot(); io != ioBefore {
		t.Errorf("the scan moved the graph's I/O counter: %+v -> %+v", ioBefore, io)
	}
	if reads := walIO.Snapshot().Reads; reads != tableBlocks {
		t.Errorf("the scan read %d blocks of the %d-block pinned tables", reads, tableBlocks)
	}

	vw.Release()
	if fds := openFDs(); fds != fdsBefore {
		t.Errorf("%d descriptors open after Release, %d before Pin", fds, fdsBefore)
	}
	// The graph itself went on undisturbed.
	for v, want := range adjacency(n, stream.Live()) {
		if got, err := g.Neighbors(uint32(v), nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("graph list of %d = %v (%v), want %v", v, got, err, want)
		}
	}
}

// TestViewDetectsDamage: the scan checks both tables against the CRC32C
// their header records, so a flipped neighbour id that every structural
// check passes (still sorted, in range, same length) fails the scan
// instead of reaching a checkpoint.
func TestViewDetectsDamage(t *testing.T) {
	csr, err := memgraph.FromEdges(6, []memgraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	g, ctr := open(t, csr, Options{})
	et, err := os.OpenFile(g.base+".et", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer et.Close()
	// nbr(0) = [1 2] opens the edge table; make it [1 3].
	if _, err := et.WriteAt([]byte{3, 0, 0, 0}, 4); err != nil {
		t.Fatal(err)
	}
	vw, err := g.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Release()
	if err := vw.Scan(stats.NewIOCounter(ctr.BlockSize()), func(uint32, []uint32) error { return nil }); err == nil {
		t.Fatal("the scan streamed a corrupted edge table without noticing")
	}
}

// pinCost opens a random graph of n nodes and m edges, buffers the same
// number of updates, and reports what one Pin allocates and whether it
// read a table block.
func pinCost(t *testing.T, n uint32, m int, seed int64) (allocBytes uint64, ioMoved bool) {
	t.Helper()
	csr := gen.Build(gen.ErdosRenyi(n, m, seed))
	g, ctr := open(t, csr, Options{})
	mutate(t, g, testutil.NewMutationStream(n, seed+1, csr.EdgeList()), 500)

	ioBefore := ctr.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vw, err := g.Pin()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	vw.Release()
	return ms1.TotalAlloc - ms0.TotalAlloc, ctr.Snapshot() != ioBefore
}

// TestPinCostIndependentOfGraphSize bounds what the writer goroutine
// pays to capture a checkpoint view: no table I/O at all, and allocation
// that follows the update buffer and two block buffers, not m — a graph
// with four times the edges (and the same buffer) pins for the same
// price, a small fraction of what copying its adjacency would take.
func TestPinCostIndependentOfGraphSize(t *testing.T) {
	const n, m = 4000, 30000
	seed := testutil.Seed(t, 29)
	small, moved1 := pinCost(t, n, m, seed)
	large, moved4 := pinCost(t, n, 4*m, seed)
	if moved1 || moved4 {
		t.Errorf("Pin read table blocks")
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
