package dyngraph_test

import (
	"slices"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// fixture is a dynamic graph on one block reader, plus what a test may
// observe from outside the graph.
type fixture struct {
	*dyngraph.Graph
	// base is the path prefix of the tables.
	base string
	// ctr is what the graph's own reads and rewrites are charged to.
	ctr *stats.IOCounter
}

// files lists what a view pinned now reads: the edge table (the node
// records come from the index the view shares with the graph).
func (f *fixture) files() []string { return []string{f.base + ".et"} }

// gauges snapshots everything a view must not move: the graph's I/O
// counter and the block cache's counters.
func (f *fixture) gauges() any { return [2]any{f.ctr.Snapshot(), *f.DiskStats()} }

// drivers is the conformance table: everything dyngraph promises must
// hold whatever the frames — the default 64 ("uncached", as it was once
// named), or a cache of four, far below any fixture's adjacency.
var drivers = []struct {
	name        string
	cacheBlocks int
}{
	{"uncached", 0},
	{"cached", 4},
}

// driverOpen opens a graph on the driver a subtest runs over.
type driverOpen = func(*memgraph.CSR, dyngraph.Options) *fixture

// onEachDriver runs test once per block reader, as subtests.
func onEachDriver(t *testing.T, test func(*testing.T, driverOpen)) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			test(t, func(csr *memgraph.CSR, opts dyngraph.Options) *fixture {
				base := testutil.WriteCSR(t, csr)
				ctr := stats.NewIOCounter(512)
				opts.CacheBlocks = d.cacheBlocks
				g, err := dyngraph.Open(base, ctr, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				return &fixture{Graph: g, base: base, ctr: ctr}
			})
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
func adjacency(n uint32, edges []graph.Edge) [][]uint32 {
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
