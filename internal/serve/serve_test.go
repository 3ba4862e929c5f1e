package serve_test

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/testutil"
)

// openGraph materialises a deterministic social graph on disk and opens
// it, returning the handle and its edge list.
func openGraph(t testing.TB, n uint32, seed int64) (*kcore.Graph, []kcore.Edge) {
	t.Helper()
	base, edges := testutil.WriteSocial(t, n, seed)
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, edges
}

func coreChecksum(core []uint32) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [4]byte
	for _, c := range core {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestConcurrentReadersSeeConsistentEpochs is the acceptance race test:
// 8 concurrent readers query the session while the writer applies >= 1000
// coalesced edge updates; every core array a reader observes must exactly
// match the array of some published applied-batch epoch (no torn reads),
// and the final state must equal a from-scratch decomposition.
func TestConcurrentReadersSeeConsistentEpochs(t *testing.T) {
	g, edges := openGraph(t, 300, 42)

	// history records the checksum of every published epoch, keyed by
	// sequence number, from the writer goroutine at publish time.
	var history sync.Map
	sess, err := serve.New(g, &serve.Options{
		MaxBatch:      64,
		FlushInterval: 500 * time.Microsecond,
		OnPublish: func(e *serve.Epoch) {
			history.Store(e.Seq, coreChecksum(e.Cores()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var stop atomic.Bool
	type observation struct {
		seq uint64
		sum uint64
	}
	var wg sync.WaitGroup
	// Stop the readers even when an assertion below fails the test, so
	// they cannot busy-spin past the test's end.
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	obsCh := make(chan []observation, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var obs []observation
			var lastSeq uint64
			for i := 0; !stop.Load() || i < 100; i++ {
				snap := sess.Snapshot()
				if snap.Seq < lastSeq {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, lastSeq, snap.Seq)
					break
				}
				lastSeq = snap.Seq
				if v, err := snap.CoreOf(uint32(i) % snap.NumNodes()); err != nil || v > snap.Kmax {
					t.Errorf("reader %d: CoreOf = %d, %v (kmax %d)", r, v, err, snap.Kmax)
					break
				}
				obs = append(obs, observation{snap.Seq, coreChecksum(snap.Cores())})
				if stop.Load() && i >= 100 {
					break
				}
			}
			obsCh <- obs
		}(r)
	}

	// Writer: 6 rounds of (delete 100 edges, re-insert them) = 1200
	// updates; the graph ends exactly where it started. Each batch is
	// synced before its opposite is enqueued, so no delete meets its
	// re-insert inside one flush — every update truly applies (the
	// annihilation path has its own tests).
	r := rand.New(rand.NewSource(7))
	perm := r.Perm(len(edges))
	batch := make([]serve.Update, 0, 100)
	for round := 0; round < 6; round++ {
		for _, op := range []serve.Op{serve.OpDelete, serve.OpInsert} {
			batch = batch[:0]
			for i := 0; i < 100; i++ {
				e := edges[perm[i%len(perm)]]
				batch = append(batch, serve.Update{Op: op, U: e.U, V: e.V})
			}
			if err := sess.Apply(batch...); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	final := sess.Snapshot()
	if final.Applied < 1000 {
		t.Fatalf("applied %d updates, want >= 1000", final.Applied)
	}
	st := sess.Report().Serve
	if st.Batches >= st.Applied {
		t.Fatalf("no coalescing: %d batches for %d applied updates", st.Batches, st.Applied)
	}
	if st.Epochs < 2 {
		t.Fatalf("published %d epochs, want >= 2", st.Epochs)
	}

	// Every observation must match the writer's record of that epoch.
	total := 0
	for i := 0; i < readers; i++ {
		for _, o := range <-obsCh {
			total++
			want, ok := history.Load(o.seq)
			if !ok {
				t.Fatalf("reader observed unpublished epoch %d", o.seq)
			}
			if want.(uint64) != o.sum {
				t.Fatalf("torn read: epoch %d checksum %x, published %x", o.seq, o.sum, want)
			}
		}
	}
	if total == 0 {
		t.Fatal("readers made no observations")
	}

	// The final epoch must agree with a from-scratch decomposition.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coreChecksum(res.Core) != coreChecksum(final.Cores()) {
		t.Fatal("final epoch diverges from fresh decomposition")
	}
}

// absentEdge finds an edge not currently in g.
func absentEdge(g *kcore.Graph) (uint32, uint32, error) {
	for u := uint32(0); u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			present, err := g.HasEdge(u, v)
			if err != nil {
				return 0, 0, err
			}
			if !present {
				return u, v, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("graph is complete; cannot insert")
}

func TestSyncIsReadYourWrites(t *testing.T) {
	g, _ := openGraph(t, 120, 3)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	before := sess.Snapshot()
	u, v, err := absentEdge(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(serve.Update{Op: serve.OpInsert, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	after := sess.Snapshot()
	if after.Seq <= before.Seq {
		t.Fatalf("epoch did not advance: %d -> %d", before.Seq, after.Seq)
	}
	if after.NumEdges != before.NumEdges+1 {
		t.Fatalf("NumEdges = %d, want %d", after.NumEdges, before.NumEdges+1)
	}
	if after.Applied != before.Applied+1 {
		t.Fatalf("Applied = %d, want %d", after.Applied, before.Applied+1)
	}
	// The pre-update epoch is immutable: still the old edge count.
	if before.NumEdges != sess.Snapshot().NumEdges-1 {
		t.Fatal("held epoch mutated")
	}
}

// TestDoRunsOnTheWriterBetweenFlushes pins the barrier contract Sync is
// the trivial case of: fn runs once everything enqueued before the call
// is applied and published, and nothing is applied or published while it
// runs — updates enqueued meanwhile wait in the queue — so it observes
// one exact flush boundary. After Close it does not run at all.
func TestDoRunsOnTheWriterBetweenFlushes(t *testing.T) {
	g, edges := openGraph(t, 200, 7)
	sess, err := serve.New(g, &serve.Options{MaxBatch: 4, FlushInterval: 100 * time.Microsecond, QueueCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}

	// A background enqueuer keeps the writer busy toggling edges.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[i%64]
			op := serve.OpDelete
			if (i/64)%2 == 1 {
				op = serve.OpInsert
			}
			if err := sess.Enqueue(serve.Update{Op: op, U: e.U, V: e.V}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 40; i++ {
		mine := edges[100+i]
		before := sess.Snapshot().Applied
		if err := sess.Delete(mine.U, mine.V); err != nil {
			t.Fatal(err)
		}
		var entry, exit *serve.Epoch
		if err := sess.Do(func() {
			entry = sess.Snapshot()
			time.Sleep(300 * time.Microsecond) // several flush intervals, were the writer free to flush
			exit = sess.Snapshot()
		}); err != nil {
			t.Fatal(err)
		}
		if entry == nil || entry != exit {
			t.Fatalf("round %d: an epoch was published while Do's func ran (%v -> %v)", i, entry, exit)
		}
		if entry.Applied <= before {
			t.Fatalf("round %d: Do ran before the delete enqueued ahead of it was applied", i)
		}
	}
	close(stop)
	<-done

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := sess.Do(func() { ran = true }); err != serve.ErrClosed || ran {
		t.Fatalf("Do after Close = %v (ran: %v), want ErrClosed and no run", err, ran)
	}
}

func TestInvalidUpdatesAreRejectedNotFatal(t *testing.T) {
	g, edges := openGraph(t, 100, 5)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := edges[0]
	bad := []serve.Update{
		{Op: serve.OpInsert, U: e.U, V: e.V},        // duplicate insert
		{Op: serve.OpDelete, U: e.U, V: e.V},        // valid delete
		{Op: serve.OpDelete, U: e.U, V: e.V},        // delete of now-absent edge
		{Op: serve.OpInsert, U: 5, V: 5},            // self-loop
		{Op: serve.OpInsert, U: 0, V: g.NumNodes()}, // out of range
		{Op: serve.OpInsert, U: e.U, V: e.V},        // valid re-insert
	}
	if err := sess.Apply(bad...); err != nil {
		t.Fatal(err)
	}
	st := sess.Report().Serve
	if st.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", st.Rejected)
	}
	// The valid delete + re-insert pair nets to nothing: the coalescer
	// annihilates it before the maintenance algorithms ever run.
	if st.Annihilated != 2 {
		t.Fatalf("annihilated = %d, want 2", st.Annihilated)
	}
	if st.Applied != 0 {
		t.Fatalf("applied = %d, want 0", st.Applied)
	}
	if present, err := g.HasEdge(e.U, e.V); err != nil || !present {
		t.Fatalf("edge (%d,%d) present=%v err=%v after net-zero flush, want present",
			e.U, e.V, present, err)
	}
	// Session still serves and accepts work.
	if err := sess.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraBatchDuplicatesRejectDeterministically(t *testing.T) {
	g, edges := openGraph(t, 100, 9)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := edges[0]
	// Both orientations of the same edge in one run: the second rejects.
	if err := sess.Apply(
		serve.Update{Op: serve.OpDelete, U: e.U, V: e.V},
		serve.Update{Op: serve.OpDelete, U: e.V, V: e.U},
	); err != nil {
		t.Fatal(err)
	}
	st := sess.Report().Serve
	if st.Applied != 1 || st.Rejected != 1 {
		t.Fatalf("applied/rejected = %d/%d, want 1/1", st.Applied, st.Rejected)
	}
}

func TestCoalescingBoundsEpochCount(t *testing.T) {
	g, _ := openGraph(t, 200, 11)
	sess, err := serve.New(g, &serve.Options{
		MaxBatch:      128,
		FlushInterval: time.Second, // only size-based flushes matter here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// 500 deletes of existing edges, enqueued as one burst.
	var ups []serve.Update
	err = g.VisitEdges(func(u, v uint32) error {
		if len(ups) < 500 {
			ups = append(ups, serve.Update{Op: serve.OpDelete, U: u, V: v})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) < 500 {
		t.Fatalf("graph too small: %d edges", len(ups))
	}
	if err := sess.Apply(ups...); err != nil {
		t.Fatal(err)
	}
	st := sess.Report().Serve
	if st.Applied != 500 {
		t.Fatalf("applied = %d, want 500", st.Applied)
	}
	if st.Epochs > 10 {
		t.Fatalf("%d epochs for one 500-update burst; coalescing is broken", st.Epochs)
	}
	if mean := float64(st.BatchEdgesSum) / float64(st.Batches); mean < 32 {
		t.Fatalf("mean batch = %.1f edges, want >= 32", mean)
	}
}

// TestReportReadsGaugesFromLiveState: at quiescence one snapshot
// partitions every enqueued update, and the gauges are what the queue
// and the current epoch hold when Report runs — a held writer leaves
// the queue's updates in queue_depth.
func TestReportReadsGaugesFromLiveState(t *testing.T) {
	g, edges := openGraph(t, 200, 17)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	u, v, err := absentEdge(g)
	if err != nil {
		t.Fatal(err)
	}
	e := edges[0]
	if err := sess.Apply(
		serve.Update{Op: serve.OpDelete, U: e.U, V: e.V},
		serve.Update{Op: serve.OpInsert, U: e.U, V: e.V},
		serve.Update{Op: serve.OpInsert, U: u, V: v},
		serve.Update{Op: serve.OpInsert, U: u, V: u},
		serve.Update{Op: serve.OpDelete, U: u, V: g.NumNodes()},
	); err != nil {
		t.Fatal(err)
	}
	ep := sess.Snapshot()
	st := sess.Report().Serve
	if st.Enqueued != 5 || st.Applied+st.Rejected+st.Annihilated != st.Enqueued {
		t.Fatalf("enqueued %d, applied %d + rejected %d + annihilated %d; want 5 = the sum",
			st.Enqueued, st.Applied, st.Rejected, st.Annihilated)
	}
	if st.QueueDepth != 0 || st.Epoch != ep.Seq || st.Epochs != int64(ep.Seq)+1 {
		t.Fatalf("queue depth %d, epoch %d, epochs %d; want 0, %d, %d", st.QueueDepth, st.Epoch, st.Epochs, ep.Seq, ep.Seq+1)
	}
	if age := time.Since(ep.TakenAt); st.EpochAge < 0 || st.EpochAge > age {
		t.Fatalf("epoch age %v, want within [0, %v]", st.EpochAge, age)
	}

	// Nothing fails the test while the writer is held: the deferred
	// Close would wait for it forever.
	entered, release := make(chan struct{}), make(chan struct{})
	held := make(chan error)
	go func() { held <- sess.Do(func() { close(entered); <-release }) }()
	<-entered
	err = sess.Enqueue(serve.Update{Op: serve.OpDelete, U: u, V: v}, serve.Update{Op: serve.OpInsert, U: u, V: v}, serve.Update{Op: serve.OpDelete, U: u, V: v})
	st = sess.Report().Serve
	close(release)
	if herr := <-held; err == nil {
		err = herr
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 3 || st.Epoch != ep.Seq {
		t.Fatalf("held writer: queue depth %d at epoch %d, want 3 at %d", st.QueueDepth, st.Epoch, ep.Seq)
	}
}

func TestCloseDrainsAndSealsSession(t *testing.T) {
	g, edges := openGraph(t, 100, 13)
	sess, err := serve.New(g, &serve.Options{FlushInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e := edges[0]
	if err := sess.Delete(e.U, e.V); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	final := sess.Snapshot()
	if final.Applied != 1 {
		t.Fatalf("close did not drain: applied = %d, want 1", final.Applied)
	}
	if err := sess.Insert(e.U, e.V); err != serve.ErrClosed {
		t.Fatalf("Enqueue after close = %v, want ErrClosed", err)
	}
	if err := sess.Close(); err != serve.ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	// Snapshots stay readable after close.
	if got := sess.Snapshot(); got.Seq != final.Seq {
		t.Fatalf("post-close snapshot seq %d, want %d", got.Seq, final.Seq)
	}
}

func TestOpString(t *testing.T) {
	if fmt.Sprint(serve.OpInsert, serve.OpDelete) != "insert delete" {
		t.Fatalf("Op strings = %q", fmt.Sprint(serve.OpInsert, serve.OpDelete))
	}
}

// TestOddToggleRunNetsSingleOp checks the coalescer's net-effect math:
// an odd-length alternating run on one edge applies exactly one op (the
// first valid one) and annihilates the rest.
func TestOddToggleRunNetsSingleOp(t *testing.T) {
	g, edges := openGraph(t, 100, 15)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := edges[0]
	before := sess.Snapshot()
	if err := sess.Apply(
		serve.Update{Op: serve.OpDelete, U: e.U, V: e.V},
		serve.Update{Op: serve.OpInsert, U: e.U, V: e.V},
		serve.Update{Op: serve.OpDelete, U: e.U, V: e.V},
	); err != nil {
		t.Fatal(err)
	}
	st := sess.Report().Serve
	if st.Applied != 1 || st.Annihilated != 2 || st.Rejected != 0 {
		t.Fatalf("applied/annihilated/rejected = %d/%d/%d, want 1/2/0",
			st.Applied, st.Annihilated, st.Rejected)
	}
	after := sess.Snapshot()
	if after.Seq != before.Seq+1 {
		t.Fatalf("epoch %d -> %d, want one publication", before.Seq, after.Seq)
	}
	if after.NumEdges != before.NumEdges-1 {
		t.Fatalf("NumEdges = %d, want %d", after.NumEdges, before.NumEdges-1)
	}
	if present, err := g.HasEdge(e.U, e.V); err != nil || present {
		t.Fatalf("edge present=%v err=%v, want deleted", present, err)
	}
}

// TestOnApplyReportsNetBatches pins the OnApply delta-feed contract the
// write-ahead log is built on: the callback sees exactly the applied
// net batches, deletes before inserts, with rejected and annihilated
// updates excluded.
func TestOnApplyReportsNetBatches(t *testing.T) {
	g, edges := openGraph(t, 120, 31)
	type call struct{ deletes, inserts []kcore.Edge }
	var mu sync.Mutex
	var calls []call
	sess, err := serve.New(g, &serve.Options{
		OnApply: func(deletes, inserts []kcore.Edge) {
			mu.Lock()
			calls = append(calls, call{
				deletes: append([]kcore.Edge(nil), deletes...),
				inserts: append([]kcore.Edge(nil), inserts...),
			})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e0, e1 := edges[0], edges[1]
	// One flush: a real delete, a duplicate insert (rejected), and an
	// annihilating toggle on e1.
	err = sess.Apply(
		serve.Update{Op: serve.OpDelete, U: e0.U, V: e0.V},
		serve.Update{Op: serve.OpInsert, U: e1.U, V: e1.V}, // duplicate: rejected
		serve.Update{Op: serve.OpDelete, U: e1.U, V: e1.V}, // toggle pair with the next:
		serve.Update{Op: serve.OpInsert, U: e1.U, V: e1.V}, // annihilates, never applied
	)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) == 0 {
		t.Fatal("OnApply never fired for an applied flush")
	}
	var dels, ins int
	for _, c := range calls {
		dels += len(c.deletes)
		ins += len(c.inserts)
		for _, d := range c.deletes {
			if d == (kcore.Edge{U: min(e1.U, e1.V), V: max(e1.U, e1.V)}) {
				t.Fatal("annihilated edge leaked into the OnApply delete batch")
			}
		}
	}
	st := sess.Report().Serve
	if int64(dels+ins) != st.Applied {
		t.Fatalf("OnApply reported %d ops, applied counter says %d", dels+ins, st.Applied)
	}
	if st.Annihilated != 2 || st.Rejected == 0 {
		t.Fatalf("fixture did not exercise annihilation+rejection: %+v", st)
	}
}

// TestEnqueueInternalReportsItsOutcome pins the isolated-batch contract
// recovery and followers apply history through: the callback runs once
// per batch on the writer goroutine, right after the publish, with the
// covering epoch and the applied/rejected/annihilated split; OnApply
// never sees the batch; the batch never coalesces with its neighbours;
// and a failed writer reports its error instead of an outcome.
func TestEnqueueInternalReportsItsOutcome(t *testing.T) {
	base, edges := testutil.WriteSocial(t, 200, 31)
	// Two small frames over a table many blocks long, so that once the
	// table is damaged (last case) almost any fetch finds the damage.
	g, err := kcore.Open(base, &kcore.OpenOptions{BlockSize: 512, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var userFlushes atomic.Int64
	sess, err := serve.New(g, &serve.Options{
		OnApply: func(_, _ []kcore.Edge) { userFlushes.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run := func(ups ...serve.Update) serve.BatchResult {
		t.Helper()
		ch := make(chan serve.BatchResult, 1)
		err := sess.EnqueueInternal(ups, func(r serve.BatchResult) {
			if r.Epoch != sess.Snapshot() {
				t.Errorf("callback ran with epoch %d while epoch %d is current", r.Epoch.Seq, sess.Snapshot().Seq)
			}
			ch <- r
		})
		if err != nil {
			t.Fatal(err)
		}
		return <-ch
	}
	ins := func(e kcore.Edge) serve.Update { return serve.Update{Op: serve.OpInsert, U: e.U, V: e.V} }
	del := func(e kcore.Edge) serve.Update { return serve.Update{Op: serve.OpDelete, U: e.U, V: e.V} }
	present := edges[:3]
	has := make(map[kcore.Edge]bool)
	for _, e := range edges {
		has[e] = true
	}
	var absent []kcore.Edge
	for v := uint32(1); len(absent) < 3; v++ {
		if e := (kcore.Edge{U: 0, V: v}); !has[e] {
			absent = append(absent, e)
		}
	}
	check := func(name string, r serve.BatchResult, seq uint64, applied, rejected, annihilated int) {
		t.Helper()
		if r.Err != nil || r.Epoch.Seq != seq || r.Applied != applied || r.Rejected != rejected || r.Annihilated != annihilated {
			t.Fatalf("%s: epoch %d, %d applied / %d rejected / %d annihilated, err %v; want epoch %d, %d / %d / %d",
				name, r.Epoch.Seq, r.Applied, r.Rejected, r.Annihilated, r.Err, seq, applied, rejected, annihilated)
		}
	}
	check("all applied", run(del(present[0]), ins(absent[0])), 1, 2, 0, 0)
	check("some rejected", run(ins(present[1]), ins(absent[1])), 2, 1, 1, 0)
	check("none applied", run(ins(present[1]), del(absent[2])), 2, 0, 2, 0)
	check("annihilated", run(ins(absent[2]), del(absent[2])), 2, 0, 0, 2)
	check("empty", run(), 2, 0, 0, 0)
	if n := userFlushes.Load(); n != 0 {
		t.Fatalf("OnApply observed %d internal flushes", n)
	}
	// Isolation: a user insert and an internal delete of the same edge,
	// enqueued back to back, are two flushes and two epochs — coalesced
	// they would have annihilated into none.
	if err := sess.Enqueue(ins(absent[2])); err != nil {
		t.Fatal(err)
	}
	check("isolated", run(del(absent[2])), 4, 1, 0, 0)
	if n := userFlushes.Load(); n != 1 {
		t.Fatalf("OnApply observed %d flushes, want the one user flush", n)
	}

	// Writer failed: damage every block of the edge table under the
	// session, then touch lists all over it.
	et, err := os.ReadFile(base + ".et")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(et); i += 64 {
		et[i] ^= 1
	}
	if err := os.WriteFile(base+".et", et, 0o644); err != nil {
		t.Fatal(err)
	}
	var batch []serve.Update
	for i := 0; i < len(edges); i += len(edges) / 24 {
		batch = append(batch, del(edges[i]))
	}
	r := run(batch...)
	if r.Err == nil || r.Rejected != len(batch) || r.Applied != 0 || r.Epoch.Seq != 4 {
		t.Fatalf("failed writer reported %+v, want its error, the batch rejected whole and epoch 4", r)
	}
	err = sess.EnqueueInternal(batch, func(serve.BatchResult) { t.Error("callback ran for a batch a failed session refused") })
	if err == nil {
		t.Fatal("a failed session accepted an internal batch")
	}
}
