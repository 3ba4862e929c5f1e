// Package serve turns the paper's single-caller maintenance session into
// a concurrent serving subsystem. A ConcurrentSession publishes immutable
// core/graph snapshots through an atomically-swapped epoch pointer:
// readers load the current *Epoch with one atomic pointer read and query
// it lock-free, never blocking and never observing a torn state. A single
// writer goroutine owns the underlying kcore.Maintainer; it drains an
// ingest queue, coalesces pending edge insert/delete events to their net
// effect per edge (flushed on a size threshold or a time threshold;
// opposing pairs annihilate pre-apply), applies the net ops
// through the maintainer's batch operations, then swaps in a fresh epoch
// derived copy-on-write from its predecessor: only snapshot chunks
// holding changed core numbers are copied (O(changed) publication).
// Queries keep no per-epoch state: /kcore answers a k-core listing from
// the epoch's embedded snapshot with CoreSnapshot.KCoreTop, one scan that
// stops once the limit is placed. Epoch.KCoreAt is KCoreTop without a
// limit, kept for the benchmark harness's cold-listing probe.
//
// Consistency model: updates are applied in enqueue order, and every
// published epoch reflects a consistent prefix of the applied updates —
// an epoch is only ever the exact state after some whole number of
// coalesced batches. Readers may observe a slightly stale epoch (bounded
// by the flush interval plus apply time) but never a partial batch.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/stats"
)

// Op selects the kind of an edge update.
type Op uint8

const (
	// OpInsert adds an edge.
	OpInsert Op = iota
	// OpDelete removes an edge.
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	if o == OpDelete {
		return "delete"
	}
	return "insert"
}

// Update is one edge mutation submitted to the ingest queue.
type Update struct {
	Op   Op
	U, V uint32
}

// Epoch is one published state of the decomposition. The embedded
// CoreSnapshot is immutable; an Epoch, once obtained from Snapshot, stays
// valid and unchanging forever (later epochs are new allocations).
//
// Every query reads the snapshot alone, so an Epoch carries no query
// state and its publication costs O(changed). The embedded snapshot's
// Dirty is the exact delta against the previous epoch (nil for epoch 0).
type Epoch struct {
	*kcore.CoreSnapshot
	// Seq is the publication sequence number, starting at 0 for the
	// initial decomposition and incremented per published epoch.
	Seq uint64
	// Applied is the cumulative count of edge updates applied up to and
	// including this epoch.
	Applied uint64
}

// KCoreAt returns the nodes of the k-core at this epoch, core number
// descending and ids ascending within one core number: the snapshot's
// KCoreTop without a limit, a fresh slice the caller owns.
func (e *Epoch) KCoreAt(k uint32) []uint32 { nodes, _ := e.KCoreTop(k, 0); return nodes }

// Options tunes a ConcurrentSession. The zero value selects defaults.
type Options struct {
	// MaxBatch flushes the pending updates once this many have been
	// coalesced; 0 selects 256.
	MaxBatch int
	// FlushInterval flushes pending updates this long after the first
	// un-flushed update arrived, bounding epoch staleness under light
	// write load; 0 selects 2ms.
	FlushInterval time.Duration
	// QueueCapacity bounds the ingest queue; enqueueing blocks when it is
	// full (backpressure). 0 selects 4096.
	QueueCapacity int
	// OnPublish, when non-nil, observes every published epoch from the
	// writer goroutine (after the swap). Intended for tests.
	OnPublish func(*Epoch)
	// OnApply, when non-nil, observes every successfully applied flush
	// from the writer goroutine: the net delete and insert batches, in
	// the order they were applied (deletes first). Rejected and
	// annihilated updates never appear. The slices are writer-owned
	// scratch — the callback must copy anything it keeps. The durability
	// shell (internal/engine) writes its log records from it.
	//
	// Only flushes of user updates are reported: an EnqueueInternal batch
	// is history being applied again (a WAL record at recovery, a
	// leader's record on a follower) and answers to its own callback.
	//
	// Ordering guarantee: OnApply fires on the writer goroutine
	// immediately before the OnPublish call for the epoch that covers the
	// flush, with nothing in between — so a consumer that watches both
	// callbacks sees them strictly paired and in publication order.
	OnApply func(deletes, inserts []kcore.Edge)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 4096
	}
	return o
}

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("serve: session closed")

// Report is everything an engine says about itself: a label, and a
// snapshot of the counters of each layer it has. A ConcurrentSession
// fills in the session's and the graph's part; the engine around one
// (internal/engine) labels it, and the shells around that (the durable
// shell, the follower in internal/replica) add their block to the report
// of what they wrap.
type Report struct {
	// Backend labels the engine in /stats and listings.
	Backend string
	// Serve is the serving block: ingest accounting, batch and publish
	// shape, queue depth and epoch age.
	Serve stats.ServeSnapshot
	// IO is the block I/O performed through the graph.
	IO kcore.IOStats
	// Disk is the block cache, update buffer and rewrite economy of the
	// graph.
	Disk *stats.DiskSnapshot
	// Durability is the WAL/checkpoint/recovery block of a graph served
	// from a data dir; nil otherwise.
	Durability *stats.WalSnapshot
	// Replica is the cursor/lag/stream block of a follower; nil otherwise.
	Replica *stats.ReplicaSnapshot
}

// BatchResult is what the writer made of one EnqueueInternal batch.
type BatchResult struct {
	// Epoch covers the batch: the epoch its flush published, or the one
	// already current when nothing of the batch applied.
	Epoch *Epoch
	// Applied, Rejected and Annihilated partition the batch's updates,
	// as the counters of the same names do.
	Applied, Rejected, Annihilated int
	// Err is the writer's fatal error, when maintenance has failed; the
	// batch then counts as rejected whole.
	Err error
}

// envelope is a queue entry: one update, a barrier (see Do), or an
// internal batch (flushed in isolation, see EnqueueInternal).
type envelope struct {
	up       Update
	barrier  func(err error)   // non-nil marks a barrier; called with the writer's error state
	internal []Update          // the updates of an isolated internal batch, and
	done     func(BatchResult) // its completion callback; non-nil marks one
}

// ConcurrentSession serves core-decomposition queries to many goroutines
// while edge updates stream in. Readers call Snapshot (lock-free); writers
// call Enqueue/Insert/Delete (queued, coalesced, applied asynchronously by
// the single writer goroutine). See the package comment for the
// consistency model.
type ConcurrentSession struct {
	g    *kcore.Graph      // the edge store, and
	m    *kcore.Maintainer // the maintained cores over it, being served
	opts Options
	ctr  stats.Counters[stats.ServeSnapshot] // the counters; Report reads the gauges

	cur   atomic.Pointer[Epoch]
	queue chan envelope

	mu     sync.RWMutex // guards closed against concurrent sends
	closed bool
	wg     sync.WaitGroup

	failure atomic.Pointer[sessionFailure]
}

type sessionFailure struct{ err error }

// New decomposes g with SemiCore*, publishes the result as epoch 0 and
// starts the writer goroutine. The caller keeps ownership of g but must
// not use it (or any Maintainer on it) directly while the session is
// open: the writer goroutine is the sole mutator.
func New(g *kcore.Graph, opts *Options) (*ConcurrentSession, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: initial decomposition: %w", err)
	}
	s := &ConcurrentSession{
		g:     g,
		m:     m,
		opts:  o,
		queue: make(chan envelope, o.QueueCapacity),
	}
	s.publish(m.Snapshot(), 0)
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// Snapshot returns the current epoch: one atomic load, never blocks. The
// returned epoch is immutable and remains valid after the session closes.
func (s *ConcurrentSession) Snapshot() *Epoch { return s.cur.Load() }

// Insert enqueues an edge insertion.
func (s *ConcurrentSession) Insert(u, v uint32) error {
	return s.Enqueue(Update{Op: OpInsert, U: u, V: v})
}

// Delete enqueues an edge deletion.
func (s *ConcurrentSession) Delete(u, v uint32) error {
	return s.Enqueue(Update{Op: OpDelete, U: u, V: v})
}

// Enqueue submits updates to the ingest queue in order. It blocks while
// the queue is full (backpressure) and returns ErrClosed after Close or
// the writer's fatal error if maintenance failed.
func (s *ConcurrentSession) Enqueue(ups ...Update) error {
	if f := s.failure.Load(); f != nil {
		return f.err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.noteEnqueued(len(ups))
	for _, u := range ups {
		s.queue <- envelope{up: u}
	}
	return nil
}

// EnqueueInternal submits a batch of updates that the writer flushes in
// isolation: everything already pending is flushed first (FIFO order is
// preserved), then the batch is coalesced and applied as its own flush
// and, if anything of it applied, published as its own epoch — so the
// batch never coalesces or annihilates against updates enqueued around
// it. This is how logged history is applied: one record, one epoch. The
// flush is not reported through OnApply; instead done runs exactly once,
// on the writer goroutine right after the publish (keep it short), with
// the outcome — an empty batch included. The caller must not mutate ups
// after the call. It blocks while the queue is full; after Close, or
// once maintenance has failed, it returns the error without enqueueing
// and done never runs.
func (s *ConcurrentSession) EnqueueInternal(ups []Update, done func(BatchResult)) error {
	if f := s.failure.Load(); f != nil {
		return f.err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.noteEnqueued(len(ups))
	s.queue <- envelope{internal: ups, done: done}
	return nil
}

// noteEnqueued counts n updates in before the writer can see them, so
// no snapshot shows more updates accounted for than enqueued.
func (s *ConcurrentSession) noteEnqueued(n int) {
	s.ctr.Update(func(c *stats.ServeSnapshot) { c.Enqueued += int64(n) })
}

// Sync blocks until every update enqueued before the call has been
// applied and published, then reports the writer's error state. It is the
// read-your-writes barrier: a Snapshot taken after Sync returns reflects
// all of the caller's prior updates.
func (s *ConcurrentSession) Sync() error { return s.Do(func() {}) }

// Do runs fn on the writer goroutine once every update enqueued before
// the call has been applied and published, and returns after fn has.
// The writer does nothing else while fn runs, so fn sees the graph,
// the current epoch and whatever the OnApply hooks maintain at one exact
// flush boundary — and every queued update waits for it: keep fn short.
// fn is skipped, and the writer's error returned, when maintenance has
// failed (the graph may then be torn mid-batch).
func (s *ConcurrentSession) Do(fn func()) error {
	if f := s.failure.Load(); f != nil {
		// The writer is dead: every already-enqueued update has been (or
		// will be) drained without effect, so the barrier is trivially
		// satisfied — report the failure immediately instead of paying a
		// queue round-trip, exactly as Enqueue does.
		return f.err
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	ack := make(chan error, 1)
	s.queue <- envelope{barrier: func(err error) {
		if err == nil {
			fn()
		}
		ack <- err
	}}
	s.mu.RUnlock()
	return <-ack
}

// Apply enqueues updates and waits for them to be applied and published.
func (s *ConcurrentSession) Apply(ups ...Update) error {
	if err := s.Enqueue(ups...); err != nil {
		return err
	}
	return s.Sync()
}

// Report snapshots the serving counters, reads the gauges (the queue
// depth, the current epoch and its age) and describes the graph being
// served; safe to call concurrently with the writer.
func (s *ConcurrentSession) Report() Report {
	sv := s.ctr.Snapshot()
	e := s.cur.Load()
	sv.QueueDepth = int64(len(s.queue))
	sv.Epoch, sv.Epochs, sv.EpochAge = e.Seq, int64(e.Seq)+1, time.Since(e.TakenAt)
	return Report{
		Serve: sv,
		IO:    s.g.IOStats(),
		Disk:  s.g.DiskStats(),
	}
}

// Close stops the writer after draining already-enqueued updates and
// publishing the final epoch. The last Snapshot stays readable. Close
// does not close the underlying Graph — the caller owns it.
func (s *ConcurrentSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	if f := s.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// publishDelta publishes the state after a flush. rawDirty is the
// concatenation of the applied runs' RunInfo.Dirty sets (a sound
// superset of the changed nodes, possibly with duplicates); the
// copy-on-write snapshot reduces it to the exact delta against the
// previous epoch, which the dirty counters report — all O(changed).
// Only epoch 0 is a full copy.
func (s *ConcurrentSession) publishDelta(appliedNow int, rawDirty []uint32) {
	snap, copied := s.m.SnapshotDelta(s.cur.Load().CoreSnapshot, rawDirty)
	s.ctr.Update(func(c *stats.ServeSnapshot) {
		c.DirtyNodesSum += int64(len(snap.Dirty()))
		c.CowChunksCopied += int64(copied)
		c.CowChunksTotal += int64(snap.NumChunks())
	})
	s.publish(snap, appliedNow)
}

// publish swaps in a fresh epoch built from snap.
func (s *ConcurrentSession) publish(snap *kcore.CoreSnapshot, appliedNow int) {
	var seq, applied uint64
	if prev := s.cur.Load(); prev != nil {
		seq = prev.Seq + 1
		applied = prev.Applied
	}
	e := &Epoch{CoreSnapshot: snap, Seq: seq, Applied: applied + uint64(appliedNow)}
	s.cur.Store(e)
	if s.opts.OnPublish != nil {
		s.opts.OnPublish(e)
	}
}

func (s *ConcurrentSession) fail(err error) {
	s.failure.CompareAndSwap(nil, &sessionFailure{err: err})
}
