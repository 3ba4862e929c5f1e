package dyngraph_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kcore/internal/dyngraph"
	"kcore/internal/graph"
	"kcore/internal/testutil"
)

const (
	diskBenchNodes = 2000
	diskBenchSeed  = 7
)

// benchStore opens the standard bench fixture under the given cache
// budget, returning the fixture's live edges so mutation streams can
// seed their mirrors with them.
func benchStore(b *testing.B, cacheBlocks int) (*dyngraph.Graph, []graph.Edge) {
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

// BenchmarkDiskBufferEdit prices the flat update buffer at a full fill:
// 65,536 arcs (the default BufferArcs) and 131,072 (a durable graph's
// hard bound, twice that). One op is one edge edit — an insert of an
// absent edge or its delete, alternating so the fill holds — which moves
// the sorted key arrays in proportion to the buffer; pin_us is one Pin
// of the full buffer, two clones of the arrays. Informational: what
// holding the buffer at 8 B per arc costs the writer.
func BenchmarkDiskBufferEdit(b *testing.B) {
	for _, fill := range []int{1 << 16, 1 << 17} {
		b.Run(fmt.Sprintf("arcs=%d", fill), func(b *testing.B) {
			base, edges := testutil.WriteSocial(b, diskBenchNodes, diskBenchSeed)
			g, _ := openAt(b, base, 4096, dyngraph.Options{BufferArcs: 2 * fill})
			stream := testutil.NewMutationStream(diskBenchNodes, diskBenchSeed, edges)
			for g.BufferedArcs() < fill {
				e := stream.MakeAbsent()
				if err := g.InsertEdge(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
			toggled := make([]struct{ u, v uint32 }, 1024)
			for i := range toggled {
				e := stream.MakeAbsent()
				toggled[i].u, toggled[i].v = e.U, e.V
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, edit := toggled[i/2%len(toggled)], g.InsertEdge
				if i%2 == 1 {
					edit = g.DeleteEdge
				}
				if err := edit(e.u, e.v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			const pins = 8
			start := time.Now()
			for range pins {
				vw, err := g.Pin()
				if err != nil {
					b.Fatal(err)
				}
				vw.Release()
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/pins, "pin_us")
		})
	}
}
