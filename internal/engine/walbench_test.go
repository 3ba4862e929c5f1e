package engine_test

import (
	"testing"
	"time"

	"kcore/internal/engine"
	"kcore/internal/serve"
	"kcore/internal/wal"
)

const (
	walBenchNodes = 2000
	walBenchSeed  = 7
	walBenchPool  = 2048
)

// benchWalFlood floods a registry-opened engine with single-edge
// updates (the SemiInsert/SemiDelete maintenance path) and reports
// updates/s. dur selects the durability layer: nil is the in-memory
// baseline, otherwise the WAL with the given sync policy logs every
// applied batch. The edge pool is large enough that a toggle of the
// same edge never lands in one coalesced batch (it would annihilate).
func benchWalFlood(b *testing.B, dur *engine.DurabilityOptions) {
	base := writeGraph(b, walBenchNodes, walBenchSeed)
	opts := &engine.Options{
		Serve:      serve.Options{MaxBatch: 256, FlushInterval: time.Millisecond},
		Durability: dur,
	}
	reg := engine.NewRegistry(opts)
	defer reg.Close()
	eng, err := reg.Open("g", base)
	if err != nil {
		b.Fatal(err)
	}
	pool := freshEdges(walBenchNodes, walBenchSeed, walBenchPool)
	if len(pool) < walBenchPool {
		b.Fatalf("fixture yields only %d absent edges", len(pool))
	}
	present := make([]bool, len(pool))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pool)
		up := pool[j]
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

// BenchmarkWalFlood measures the durability tax on the insert-flood
// fixture: the same flood with durability off, fsync=never, and
// fsync=interval.
func BenchmarkWalFlood(b *testing.B) {
	b.Run("durability=off", func(b *testing.B) { benchWalFlood(b, nil) })
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			benchWalFlood(b, &engine.DurabilityOptions{Dir: b.TempDir(), Policy: policy})
		})
	}
}
