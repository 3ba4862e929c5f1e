package replica_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"kcore/internal/engine"
	"kcore/internal/httpapi"
	"kcore/internal/replica"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

const (
	replBenchNodes = 200
	replBenchSeed  = 77
)

// startBenchLeader builds the standard durable leader fixture.
func startBenchLeader(tb testing.TB, seed int64) (*httptest.Server, engine.Engine, *testutil.MutationStream, engine.ChangeStreamer) {
	tb.Helper()
	base, edges := testutil.WriteSocial(tb, replBenchNodes, seed)
	reg := engine.NewRegistry(&engine.Options{
		Serve:      serve.Options{FlushInterval: time.Millisecond},
		Durability: &engine.DurabilityOptions{Dir: tb.TempDir()},
	})
	tb.Cleanup(func() { reg.Close() })
	eng, err := reg.Open("default", base)
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(reg, "default"))
	tb.Cleanup(srv.Close)
	cs, ok := eng.(engine.ChangeStreamer)
	if !ok {
		tb.Fatal("durable engine does not expose a change stream")
	}
	return srv, eng, testutil.NewMutationStream(replBenchNodes, seed+1, edges), cs
}

// applyValid applies one guaranteed-valid mutation on the leader,
// allocating exactly one LSN.
func applyValid(tb testing.TB, eng engine.Engine, ms *testutil.MutationStream) {
	tb.Helper()
	mut := ms.NextValid()
	op := serve.OpInsert
	if mut.Op == testutil.OpDelete {
		op = serve.OpDelete
	}
	if err := eng.Apply(serve.Update{Op: op, U: mut.U, V: mut.V}); err != nil {
		tb.Fatal(err)
	}
}

// waitApplied blocks until the follower's cursor reaches lsn and returns
// the replication block that showed it there.
func waitApplied(tb testing.TB, f *replica.Follower, lsn uint64) *stats.ReplicaSnapshot {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rs := f.Report().Replica
		if rs.AppliedLSN >= lsn {
			return rs
		}
		if time.Now().After(deadline) {
			tb.Fatalf("follower stuck at %d, want %d", rs.AppliedLSN, lsn)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkReplicationApplyLag measures the replication round trip: one
// valid leader mutation (Apply waits for leader publication) until the
// follower's epoch covering it is visible to its readers. ns/op is the
// full apply-to-replica-visible latency; replica_lag_ns isolates the
// follower-side share (stream decode to epoch publish).
func BenchmarkReplicationApplyLag(b *testing.B) {
	srv, eng, ms, cs := startBenchLeader(b, replBenchSeed)
	f, err := replica.New(replica.Options{
		Leader: srv.URL,
		Serve:  serve.Options{FlushInterval: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // bench teardown
	waitApplied(b, f, cs.CurrentLSN())
	var lagNs int64 // each iteration's one record, the newest when the cursor reached it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyValid(b, eng, ms)
		lagNs += waitApplied(b, f, cs.CurrentLSN()).LagNs
	}
	b.StopTimer()
	b.ReportMetric(float64(lagNs)/float64(b.N), "replica_lag_ns")
}

// BenchmarkReplicationCatchUp measures cold-follower convergence: each
// iteration boots a fresh follower against a leader holding a 256-record
// backlog (checkpoint bootstrap + stream tail) and waits until it is
// fully converged.
func BenchmarkReplicationCatchUp(b *testing.B) {
	srv, eng, ms, cs := startBenchLeader(b, replBenchSeed+1)
	const backlog = 256
	for i := 0; i < backlog; i++ {
		applyValid(b, eng, ms)
	}
	target := cs.CurrentLSN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := replica.New(replica.Options{
			Leader: srv.URL,
			Serve:  serve.Options{FlushInterval: time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		waitApplied(b, f, target)
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(backlog*b.N)/b.Elapsed().Seconds(), "records/s")
}
