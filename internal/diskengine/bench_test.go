package diskengine_test

import (
	"math/rand"
	"testing"
	"time"

	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/memgraph"
	"kcore/internal/serve"
	"kcore/internal/testutil"
)

const (
	diskBenchNodes = 2000
	diskBenchSeed  = 7
)

// benchStore lays the standard bench fixture out as a partition store
// under the given cache budget, returning the fixture's live edges so
// mutation streams can seed their mirrors with them.
func benchStore(b *testing.B, cacheBlocks int) (*dyngraph.Graph, *diskengine.Store, []memgraph.Edge) {
	b.Helper()
	base, edges := testutil.WriteSocial(b, diskBenchNodes, diskBenchSeed)
	g, st := openStore(b, base, 4096, 0, diskengine.Options{Dir: b.TempDir(), CacheBlocks: cacheBlocks})
	return g, st, edges
}

// BenchmarkDiskNeighborsCold reads random nodes' neighbour lists through
// a single-frame cache — every partition touch is a miss, so this is the
// cold (all-I/O) query latency of the disk backend.
func BenchmarkDiskNeighborsCold(b *testing.B) {
	g, st, _ := benchStore(b, 1)
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
	reportHitRate(b, st)
}

// BenchmarkDiskNeighborsWarm is the same random-read workload with a
// cache budget covering the whole fixture: after one capacity pass every
// read is a hit, so this is the warm (resident) query latency, and the
// reported hit rate approaches 1.
func BenchmarkDiskNeighborsWarm(b *testing.B) {
	g, st, _ := benchStore(b, 4096)
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
	reportHitRate(b, st)
}

func reportHitRate(b *testing.B, st *diskengine.Store) {
	ds := st.DiskStats()
	if total := ds.CacheHits + ds.CacheMisses; total > 0 {
		b.ReportMetric(float64(ds.CacheHits)/float64(total), "hit_rate")
	}
}

// BenchmarkDiskOverlayMerge measures the overlay merge: buffer a block
// of fresh edges, then rewrite the touched partitions. The reported
// arcs/s is the sequential-rewrite throughput the EMCore-style merge
// sustains.
func BenchmarkDiskOverlayMerge(b *testing.B) {
	st, _, edges := benchStore(b, 64)
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

// BenchmarkDiskUpdateFlood floods a full disk engine with toggling
// single-edge updates through the serving queue — the end-to-end update
// path: coalescing, HasEdge probes over cached blocks + overlay, the
// maintenance window scans, and epoch publication.
func BenchmarkDiskUpdateFlood(b *testing.B) {
	base, fixture := testutil.WriteSocial(b, diskBenchNodes, diskBenchSeed)
	eng := openEngine(b, base, 256, 0, 0, &serve.Options{MaxBatch: 256, FlushInterval: time.Millisecond})
	stream := testutil.NewMutationStream(diskBenchNodes, diskBenchSeed, fixture)
	const pool = 2048
	edges := make([]serve.Update, pool)
	for i := range edges {
		e := stream.MakeAbsent()
		edges[i] = serve.Update{Op: serve.OpInsert, U: e.U, V: e.V}
	}
	present := make([]bool, pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % pool
		up := edges[j]
		if present[j] {
			up.Op = serve.OpDelete
		}
		present[j] = !present[j]
		if err := eng.Enqueue(up); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}
