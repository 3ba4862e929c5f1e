package stats

import (
	"sync"
	"time"
)

// Counters is one layer's counter set: the counter fields of its
// snapshot struct S, changed under one small lock, so that a snapshot is
// one consistent copy. S declares each value once; its gauges stay zero
// here and are read from live state when the layer takes its report.
type Counters[S any] struct {
	mu sync.Mutex
	s  S
}

// Update changes the counters in one step. f runs under the set's lock:
// it only changes fields, and never blocks.
func (c *Counters[S]) Update(f func(*S)) {
	c.mu.Lock()
	f(&c.s)
	c.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (c *Counters[S]) Snapshot() S {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// ServeSnapshot is the serving layer's block of /stats (internal/serve):
// update-ingest accounting, coalesced-batch shape and publish shape,
// counted by the session, and the ingest and epoch gauges its Report
// reads from the queue and the current epoch.
type ServeSnapshot struct {
	Enqueued int64 `json:"enqueued"` // updates accepted into the ingest queue
	Applied  int64 `json:"applied"`  // updates applied to the maintained state
	Rejected int64 `json:"rejected"` // updates dropped at validation (dup insert, absent delete, bad ids)
	Batches  int64 `json:"batches"`  // same-kind batches handed to the maintainer
	// Epochs counts the published epochs, epoch 0 included; a gauge, one
	// more than Epoch.
	Epochs        int64 `json:"epochs"`
	BatchEdgesSum int64 `json:"batch_edges_sum"` // total edges across applied batches
	BatchEdgesMax int64 `json:"batch_edges_max"` // largest single applied batch
	// QueueDepth, Epoch and EpochAge are gauges: the entries waiting in
	// the ingest queue (an internal batch is one), and the current
	// epoch's sequence number and age.
	QueueDepth int64         `json:"queue_depth"`
	Epoch      uint64        `json:"epoch"`
	EpochAge   time.Duration `json:"epoch_age_ns"`

	Annihilated     int64 `json:"annihilated_updates"` // updates cancelled against an opposing update pre-apply
	DirtyNodesSum   int64 `json:"dirty_nodes_sum"`     // changed-core nodes across publishes
	CowChunksCopied int64 `json:"cow_chunks_copied"`   // snapshot chunks copied by delta publishes
	CowChunksTotal  int64 `json:"cow_chunks_total"`    // snapshot chunks a full copy would have written
}

// NoteBatch counts one applied batch of edges updates.
func (s *ServeSnapshot) NoteBatch(edges int) {
	s.Batches++
	s.Applied += int64(edges)
	s.BatchEdgesSum += int64(edges)
	s.BatchEdgesMax = max(s.BatchEdgesMax, int64(edges))
}

// WalSnapshot is the durability layer's block of /stats: WAL appends and
// fsyncs (counted by internal/wal), checkpoints and what recovery did,
// and the gauges the durable shell's Report reads from its commit point,
// its WAL and its checkpoint reader.
type WalSnapshot struct {
	Appends     int64 `json:"wal_appends"`
	Bytes       int64 `json:"wal_bytes"`
	Fsyncs      int64 `json:"wal_fsyncs"`
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointBlockReads counts the blocks checkpoints have read to
	// stream their pinned view (the graph's live tables, through a
	// second handle of their own); they never appear in the engine's own
	// io counters. A gauge: the checkpoint reader's counter.
	CheckpointBlockReads int64 `json:"checkpoint_block_reads"`
	// CheckpointLastMs is the duration of the newest completed checkpoint.
	CheckpointLastMs float64 `json:"checkpoint_last_ms"`
	// InplaceFoldbacks counts the fold-backs the hard bound (twice
	// BufferArcs) made on the writer instead of adopting a checkpoint.
	InplaceFoldbacks int64 `json:"inplace_foldbacks"`
	Replayed         int64 `json:"replayed_records"`
	RecoveryNs       int64 `json:"recovery_ns"`
	// LSN and Degraded are gauges: the published state's log sequence
	// number, and whether the graph serves read-only.
	LSN      uint64 `json:"lsn"`
	Degraded bool   `json:"degraded"`
}

// ReplicaSnapshot is a follower's block of /stats (internal/replica):
// its apply cursor, the leader LSN it has observed, stream health
// (reconnects, heartbeats, bytes), and the apply-to-visible lag of the
// most recent record.
type ReplicaSnapshot struct {
	// AppliedLSN is the cursor: the LSN of the newest record whose epoch
	// is visible to readers. LeaderLSN is the highest leader LSN seen on
	// the stream (batch frames and heartbeats both carry one). A
	// bootstrap restarts both at the checkpoint's LSN.
	AppliedLSN uint64 `json:"applied_lsn"`
	LeaderLSN  uint64 `json:"leader_lsn"`
	// LagEpochs is a gauge, LeaderLSN - AppliedLSN (0 when not behind).
	LagEpochs    uint64 `json:"replica_lag_epochs"`
	LagNs        int64  `json:"replica_lag_ns"`
	Reconnects   int64  `json:"stream_reconnects"`
	Bootstraps   int64  `json:"bootstraps"`
	CatchupBytes int64  `json:"catchup_bytes"`
	StreamBytes  int64  `json:"stream_bytes"`
	Records      int64  `json:"records_applied"`
	Duplicates   int64  `json:"duplicates_skipped"`
	Heartbeats   int64  `json:"heartbeats"`
}
