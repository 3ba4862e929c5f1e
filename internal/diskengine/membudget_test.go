package diskengine_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/testutil"
)

// toUpdate converts a testutil mutation (valid or not) to a serve queue
// update; the serving layer must reject the invalid ones itself.
func toUpdate(mut testutil.Mutation) serve.Update {
	op := serve.OpInsert
	if mut.Op == testutil.OpDelete {
		op = serve.OpDelete
	}
	return serve.Update{Op: op, U: mut.U, V: mut.V}
}

// memOracle opens an in-memory serving session over the same fixture —
// the reference the disk engine must agree with bit-for-bit, including
// rejection of the stream's invalid updates.
func memOracle(t *testing.T, base string) *serve.ConcurrentSession {
	t.Helper()
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

	oracle := memOracle(t, base)
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
	base, edges := testutil.WriteSocial(t, n, seed)

	budgets := []int{1, 2, 8, 64}
	engines := make([]diskEngine, len(budgets))
	for i, blocks := range budgets {
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
