package serve_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// diskEngine is a serving session over a kcore.Graph read through the
// block cache: what kcored -backend disk runs.
type diskEngine struct {
	*serve.ConcurrentSession
	g *kcore.Graph
}

func (e diskEngine) DiskStats() stats.DiskSnapshot { return *e.g.DiskStats() }

// openEngine opens base with a block cache of cacheBlocks blocks and
// starts a session over it.
func openEngine(tb testing.TB, base string, cacheBlocks, blockSize, bufferArcs int, so *serve.Options) diskEngine {
	tb.Helper()
	g, err := kcore.Open(base, &kcore.OpenOptions{
		BlockSize:   blockSize,
		BufferArcs:  bufferArcs,
		CacheBlocks: cacheBlocks,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := serve.New(g, so)
	if err != nil {
		g.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		sess.Close()
		g.Close()
	})
	return diskEngine{sess, g}
}

// toUpdate converts a testutil mutation (valid or not) to a serve queue
// update; the serving layer must reject the invalid ones itself.
func toUpdate(mut testutil.Mutation) serve.Update {
	op := serve.OpInsert
	if mut.Op == testutil.OpDelete {
		op = serve.OpDelete
	}
	return serve.Update{Op: op, U: mut.U, V: mut.V}
}

// memOracle opens an uncached serving session over a second copy of the
// social fixture (every graph compacts into the tables it opened, so
// none are shared) — the reference the disk engine must agree with
// bit-for-bit, including rejection of the stream's invalid updates.
func memOracle(t *testing.T, n uint32, seed int64) *serve.ConcurrentSession {
	t.Helper()
	base, _ := testutil.WriteSocial(t, n, seed)
	og, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := serve.New(og, nil)
	if err != nil {
		og.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		oracle.Close()
		og.Close()
	})
	return oracle
}

// compareCores asserts two published core arrays are bit-identical.
func compareCores(t *testing.T, got, want []uint32, when string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cores vs oracle's %d", when, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: core[%d] = %d, oracle %d", when, v, got[v], want[v])
		}
	}
}

// TestDiskEngineUnderMemoryBudget is the memory-budget oracle harness:
// the disk engine serves a fixture whose adjacency is at least 4x larger
// than its block-cache budget, under a process memory limit pinned just
// above the test baseline, while the standard mixed valid/invalid
// mutation stream flows through the ingest queue. At every Sync the
// published cores must be bit-identical to an in-memory oracle fed the
// identical stream. The bounded cache is what makes this work: however
// large the on-disk adjacency grows, at most CacheBlocks*BlockSize bytes
// of it are ever resident.
func TestDiskEngineUnderMemoryBudget(t *testing.T) {
	const (
		n           = 1200
		cacheBlocks = 8
		blockSize   = 512
	)
	seed := testutil.Seed(t, 23)
	base, edges := testutil.WriteSocial(t, n, seed)

	// Pin the runtime's memory limit to the current baseline plus a slack
	// that covers the test fixtures and oracle but not an unbounded
	// adjacency cache; the GC enforces it for the rest of the test.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prev := debug.SetMemoryLimit(int64(ms.HeapAlloc) + 64<<20)
	defer debug.SetMemoryLimit(prev)

	eng := openEngine(t, base, cacheBlocks, blockSize, 256, nil)

	// The premise of the harness: the fixture's adjacency must dwarf the
	// cache budget, or the test proves nothing about beyond-RAM serving.
	adjBytes := eng.Snapshot().NumEdges * 8 // arcs * 4 bytes
	budget := int64(cacheBlocks * blockSize)
	if adjBytes < 4*budget {
		t.Fatalf("fixture adjacency %d B is under 4x the %d B cache budget; grow the fixture", adjBytes, budget)
	}

	oracle := memOracle(t, n, seed)
	compareCores(t, eng.Snapshot().Cores(), oracle.Snapshot().Cores(), "initial")

	stream := testutil.NewMutationStream(n, seed+1, edges)
	for round := 0; round < 10; round++ {
		for i := 0; i < 40; i++ {
			up := toUpdate(stream.Next()) // mixed: ~20% invalid, both sides must reject
			if err := eng.Enqueue(up); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Enqueue(up); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Sync(); err != nil {
			t.Fatal(err)
		}
		compareCores(t, eng.Snapshot().Cores(), oracle.Snapshot().Cores(), "after round")
	}

	ds := eng.DiskStats()
	if ds.CacheEvictions == 0 {
		t.Errorf("working set never exceeded the cache budget — the harness is not stressing eviction: %+v", ds)
	}
	if eng.Snapshot().NumEdges != oracle.Snapshot().NumEdges {
		t.Errorf("edge counts diverged: disk %d, oracle %d", eng.Snapshot().NumEdges, oracle.Snapshot().NumEdges)
	}
}

// TestCacheBudgetMetamorphic is the eviction-order metamorphic check:
// the block cache is a pure performance knob, so engines whose budgets
// differ by nearly two orders of magnitude — from a single degenerate
// frame upward — must publish bit-identical cores at every sync point
// of the same mutation stream.
func TestCacheBudgetMetamorphic(t *testing.T) {
	const n = 150
	seed := testutil.Seed(t, 31)
	_, edges := testutil.WriteSocial(t, n, seed)

	budgets := []int{1, 2, 8, 64}
	engines := make([]diskEngine, len(budgets))
	for i, blocks := range budgets {
		base, _ := testutil.WriteSocial(t, n, seed) // each engine compacts into its own tables
		engines[i] = openEngine(t, base, blocks, 256, 128, nil)
	}

	stream := testutil.NewMutationStream(n, seed+1, edges)
	for round := 0; round < 5; round++ {
		for i := 0; i < 30; i++ {
			up := toUpdate(stream.Next())
			for _, eng := range engines {
				if err := eng.Enqueue(up); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref := engines[0]
		if err := ref.Sync(); err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot().Cores()
		for i, eng := range engines[1:] {
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			compareCores(t, eng.Snapshot().Cores(), want, fmt.Sprintf("round %d, budget %d vs %d blocks", round, budgets[i+1], budgets[0]))
		}
	}
	if ev := engines[0].DiskStats().CacheEvictions; ev == 0 {
		t.Errorf("single-frame cache never evicted — fixture too small to exercise eviction order")
	}
}

// TestEngineMatchesMemOracle drives the disk engine and the in-memory
// maintainer through the same valid mutation stream, comparing core
// arrays at every sync point. Cache and overlay are sized small enough
// that block eviction and merges both happen mid-test: the encoded edge
// table is at least twice the cache (on 300 nodes it fit once the node
// table, whose fold-back reads had evicted its blocks, took a varint a
// node; on 900, once the lists took group varint where it is shorter).
func TestEngineMatchesMemOracle(t *testing.T) {
	const n = 1100
	seed := testutil.Seed(t, 11)
	base, edges := testutil.WriteSocial(t, n, seed)
	testutil.RequireSpill(t, base, 512, 8, 2)

	oracleBase, _ := testutil.WriteSocial(t, n, seed)
	og, err := kcore.Open(oracleBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer og.Close()
	oracle, err := kcore.NewMaintainer(og, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := openEngine(t, base, 8, 512, 128, nil)
	compareCores(t, eng.Snapshot().Cores(), oracle.Cores(), "initial")

	stream := testutil.NewMutationStream(n, seed+1, edges)
	for round := 0; round < 8; round++ {
		for i := 0; i < 25; i++ {
			mut := stream.NextValid()
			e := []kcore.Edge{{U: mut.U, V: mut.V}}
			err = eng.Enqueue(toUpdate(mut))
			if err == nil && mut.Op == testutil.OpInsert {
				_, err = oracle.InsertEdges(e)
			} else if err == nil {
				_, err = oracle.DeleteEdges(e)
			}
			if err != nil {
				t.Fatalf("round %d mutation %d: %v", round, i, err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		compareCores(t, eng.Snapshot().Cores(), oracle.Cores(), "after round")
	}

	ds := eng.DiskStats()
	if ds.CacheEvictions == 0 {
		t.Errorf("no cache evictions at 8x512B cache: %+v", ds)
	}
	if ds.Merges == 0 {
		t.Errorf("no overlay merges at BufferArcs=128: %+v", ds)
	}
	if eng.Report().IO.Total() == 0 {
		t.Error("IOStats().Total() = 0, disk backend should measure I/O")
	}
}

// BenchmarkDiskUpdateFlood floods a full disk engine with toggling
// single-edge updates through the serving queue — the end-to-end update
// path: coalescing, HasEdge probes over cached blocks + overlay, the
// maintenance window scans, and epoch publication.
func BenchmarkDiskUpdateFlood(b *testing.B) {
	const diskBenchNodes, diskBenchSeed = 2000, 7
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
