package dyngraph_test

import (
	"math/rand"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/memgraph"
	"kcore/internal/testutil"
)

const (
	diskBenchNodes = 2000
	diskBenchSeed  = 7
)

// benchStore opens the standard bench fixture under the given cache
// budget, returning the fixture's live edges so mutation streams can
// seed their mirrors with them.
func benchStore(b *testing.B, cacheBlocks int) (*dyngraph.Graph, []memgraph.Edge) {
	b.Helper()
	base, edges := testutil.WriteSocial(b, diskBenchNodes, diskBenchSeed)
	g, _ := openAt(b, base, 4096, dyngraph.Options{CacheBlocks: cacheBlocks})
	return g, edges
}

// BenchmarkDiskNeighborsCold reads random nodes' neighbour lists through
// a single-frame cache — every block touch is a miss, so this is the
// cold (all-I/O) query latency of the disk backend.
func BenchmarkDiskNeighborsCold(b *testing.B) {
	g, _ := benchStore(b, 1)
	r := rand.New(rand.NewSource(diskBenchSeed))
	var buf []uint32
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = g.Neighbors(uint32(r.Intn(diskBenchNodes)), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHitRate(b, g)
}

// BenchmarkDiskNeighborsWarm is the same random-read workload with a
// cache budget covering the whole fixture: after one capacity pass every
// read is a hit, so this is the warm (resident) query latency, and the
// reported hit rate approaches 1.
func BenchmarkDiskNeighborsWarm(b *testing.B) {
	g, _ := benchStore(b, 4096)
	r := rand.New(rand.NewSource(diskBenchSeed))
	var buf []uint32
	var err error
	for v := uint32(0); v < diskBenchNodes; v++ {
		if buf, err = g.Neighbors(v, buf); err != nil { // pre-warm the cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = g.Neighbors(uint32(r.Intn(diskBenchNodes)), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHitRate(b, g)
}

func reportHitRate(b *testing.B, g *dyngraph.Graph) {
	ds := g.DiskStats()
	if total := ds.CacheHits + ds.CacheMisses; total > 0 {
		b.ReportMetric(float64(ds.CacheHits)/float64(total), "hit_rate")
	}
}

// BenchmarkDiskOverlayMerge measures the overlay merge: buffer a block
// of fresh edges, then rewrite the tables. The reported arcs/s is the
// buffered arcs folded back per second of sequential rewrite.
func BenchmarkDiskOverlayMerge(b *testing.B) {
	st, edges := benchStore(b, 64)
	stream := testutil.NewMutationStream(diskBenchNodes, diskBenchSeed, edges)
	const batch = 512
	var mergedArcs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edges := make([]struct{ u, v uint32 }, 0, batch)
		for len(edges) < batch {
			e := stream.MakeAbsent()
			edges = append(edges, struct{ u, v uint32 }{e.U, e.V})
		}
		b.StartTimer()
		for _, e := range edges {
			if err := st.InsertEdge(e.u, e.v); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		mergedArcs += 2 * batch
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(mergedArcs)/sec, "merged_arcs/s")
	}
}
