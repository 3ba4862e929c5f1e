package dyngraph_test

import (
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// fixture is a dynamic graph on one base driver, plus what a test may
// observe of that driver from outside the graph.
type fixture struct {
	*dyngraph.Graph
	// ctr is what the graph's own reads and rewrites are charged to.
	ctr *stats.IOCounter
	// files lists the base files on disk holding adjacency: what a view
	// pinned now would read, plus any older generation still kept.
	files func() []string
	// edgeFile is the file whose first bytes are nbr(0).
	edgeFile func() string
	// gauges snapshots everything a view must not move: the graph's I/O
	// counter and, where there is one, the block cache's counters.
	gauges func() any
	// generations: a rewrite writes new file names and the old ones are
	// unlinked with their last reference (the alternative renames new
	// tables over the old names). Such files also hold two regions that
	// a sequential scan reads separately, sharing at most one block.
	generations bool
}

// drivers is the conformance table: everything dyngraph promises must
// hold whichever Base the buffer sits on.
var drivers = []struct {
	name string
	open func(t *testing.T, csr *memgraph.CSR, opts dyngraph.Options) *fixture
}{
	{"csr", func(t *testing.T, csr *memgraph.CSR, opts dyngraph.Options) *fixture {
		base := testutil.WriteCSR(t, csr)
		ctr := stats.NewIOCounter(512)
		g, err := dyngraph.Open(base, ctr, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return &fixture{
			Graph:    g,
			ctr:      ctr,
			files:    func() []string { return []string{base + ".nt", base + ".et"} },
			edgeFile: func() string { return base + ".et" },
			gauges:   func() any { return ctr.Snapshot() },
		}
	}},
	{"partitions", func(t *testing.T, csr *memgraph.CSR, opts dyngraph.Options) *fixture {
		dir := t.TempDir()
		ctr := stats.NewIOCounter(512)
		// Four frames: far below any fixture's adjacency. Eight partitions
		// whatever the size, so what Pin pays per partition does not grow
		// with the graph.
		st, err := diskengine.Open(testutil.WriteCSR(t, csr), ctr, diskengine.Options{
			Dir:           dir,
			CacheBlocks:   4,
			PartitionArcs: max(csr.NumArcs()/8, 64),
		})
		if err != nil {
			t.Fatal(err)
		}
		g := dyngraph.New(st, opts)
		t.Cleanup(func() { g.Close() })
		files := func() []string {
			names, err := filepath.Glob(filepath.Join(dir, "part-*"))
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(names)
			return names
		}
		return &fixture{
			Graph:       g,
			ctr:         ctr,
			files:       files,
			edgeFile:    func() string { return files()[0] },
			gauges:      func() any { return [2]any{ctr.Snapshot(), st.DiskStats()} },
			generations: true,
		}
	}},
}

// driverOpen opens a graph on the driver a subtest runs over.
type driverOpen = func(*memgraph.CSR, dyngraph.Options) *fixture

// onEachDriver runs test once per base driver, as subtests.
func onEachDriver(t *testing.T, test func(*testing.T, driverOpen)) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			test(t, func(csr *memgraph.CSR, opts dyngraph.Options) *fixture { return d.open(t, csr, opts) })
		})
	}
}

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
