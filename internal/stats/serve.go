package stats

import (
	"sync/atomic"
	"time"
)

// ServeCounters is the accounting substrate for the concurrent serving
// layer (internal/serve): update-ingest counters, coalesced-batch shape,
// and epoch-publication freshness. All fields are updated atomically so a
// single instance may be shared by the writer goroutine, every HTTP
// handler, and a metrics scraper without coordination.
type ServeCounters struct {
	enqueued atomic.Int64 // updates accepted into the ingest queue
	applied  atomic.Int64 // updates applied to the maintained state
	rejected atomic.Int64 // updates dropped at validation (dup insert, absent delete, bad ids)
	batches  atomic.Int64 // coalesced same-kind runs applied as one batch
	epochs   atomic.Int64 // epoch snapshots published

	batchEdgesSum atomic.Int64 // total edges across applied batches
	batchEdgesMax atomic.Int64 // largest single applied batch

	queueDepth atomic.Int64 // gauge: updates waiting in the ingest queue
	epoch      atomic.Uint64
	published  atomic.Int64 // UnixNano of the last epoch publication

	annihilated     atomic.Int64 // updates cancelled against an opposing update pre-apply
	dirtyNodesSum   atomic.Int64 // total dirty (changed-core) nodes across publishes
	cowChunksCopied atomic.Int64 // snapshot chunks copied by delta publishes
	cowChunksTotal  atomic.Int64 // snapshot chunks a full copy would have written
	adaptiveBatch   atomic.Int64 // gauge: the writer's current adaptive MaxBatch
}

// NoteEnqueued records n updates accepted into the ingest queue.
func (c *ServeCounters) NoteEnqueued(n int) { c.enqueued.Add(int64(n)) }

// NoteRejected records n updates dropped at validation time.
func (c *ServeCounters) NoteRejected(n int) { c.rejected.Add(int64(n)) }

// NoteBatch records one coalesced batch of edges updates being applied.
func (c *ServeCounters) NoteBatch(edges int) {
	c.batches.Add(1)
	c.applied.Add(int64(edges))
	c.batchEdgesSum.Add(int64(edges))
	for {
		cur := c.batchEdgesMax.Load()
		if int64(edges) <= cur || c.batchEdgesMax.CompareAndSwap(cur, int64(edges)) {
			return
		}
	}
}

// NotePublish records that epoch seq was published at time now.
func (c *ServeCounters) NotePublish(seq uint64, now time.Time) {
	c.epochs.Add(1)
	c.epoch.Store(seq)
	c.published.Store(now.UnixNano())
}

// SetQueueDepth updates the queue-depth gauge.
func (c *ServeCounters) SetQueueDepth(n int) { c.queueDepth.Store(int64(n)) }

// NoteAnnihilated records n valid updates that cancelled against an
// opposing update of the same edge in one coalesced flush, so neither
// side was applied (the graph state is as if both had been).
func (c *ServeCounters) NoteAnnihilated(n int) { c.annihilated.Add(int64(n)) }

// NotePublishDelta records the shape of one copy-on-write publication:
// dirty core numbers, snapshot chunks actually copied, and the chunk
// count a full copy would have cost.
func (c *ServeCounters) NotePublishDelta(dirty, copied, total int) {
	c.dirtyNodesSum.Add(int64(dirty))
	c.cowChunksCopied.Add(int64(copied))
	c.cowChunksTotal.Add(int64(total))
}

// SetAdaptiveBatch updates the adaptive coalescing gauge: the batch size
// the writer currently flushes at.
func (c *ServeCounters) SetAdaptiveBatch(n int) { c.adaptiveBatch.Store(int64(n)) }

// Epoch reports the sequence number of the last published epoch.
func (c *ServeCounters) Epoch() uint64 { return c.epoch.Load() }

// Snapshot captures the counters; EpochAge is measured against now.
func (c *ServeCounters) Snapshot(now time.Time) ServeSnapshot {
	s := ServeSnapshot{
		Enqueued:      c.enqueued.Load(),
		Applied:       c.applied.Load(),
		Rejected:      c.rejected.Load(),
		Batches:       c.batches.Load(),
		Epochs:        c.epochs.Load(),
		BatchEdgesSum: c.batchEdgesSum.Load(),
		BatchEdgesMax: c.batchEdgesMax.Load(),
		QueueDepth:    c.queueDepth.Load(),
		Epoch:         c.epoch.Load(),

		Annihilated:     c.annihilated.Load(),
		DirtyNodesSum:   c.dirtyNodesSum.Load(),
		CowChunksCopied: c.cowChunksCopied.Load(),
		CowChunksTotal:  c.cowChunksTotal.Load(),
		AdaptiveBatch:   c.adaptiveBatch.Load(),
	}
	if nanos := c.published.Load(); nanos != 0 {
		s.EpochAge = now.Sub(time.Unix(0, nanos))
	}
	return s
}

// ServeSnapshot is an immutable copy of a ServeCounters' state.
type ServeSnapshot struct {
	Enqueued      int64         `json:"enqueued"`
	Applied       int64         `json:"applied"`
	Rejected      int64         `json:"rejected"`
	Batches       int64         `json:"batches"`
	Epochs        int64         `json:"epochs"`
	BatchEdgesSum int64         `json:"batch_edges_sum"`
	BatchEdgesMax int64         `json:"batch_edges_max"`
	QueueDepth    int64         `json:"queue_depth"`
	Epoch         uint64        `json:"epoch"`
	EpochAge      time.Duration `json:"epoch_age_ns"`

	Annihilated     int64 `json:"annihilated_updates"`
	DirtyNodesSum   int64 `json:"dirty_nodes_sum"`
	CowChunksCopied int64 `json:"cow_chunks_copied"`
	CowChunksTotal  int64 `json:"cow_chunks_total"`
	AdaptiveBatch   int64 `json:"adaptive_max_batch"`
}
