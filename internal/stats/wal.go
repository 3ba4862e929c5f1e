package stats

import (
	"sync/atomic"
	"time"
)

// WalCounters instruments one graph's durability layer: WAL appends and
// fsyncs on the write path, checkpoints, and what recovery did on open.
// All fields are atomics so the writer goroutines, the checkpoint loop,
// and stats readers never contend.
type WalCounters struct {
	appends     atomic.Int64
	bytes       atomic.Int64
	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	ckptLastNs  atomic.Int64
	replayed    atomic.Int64
	recoveryNs  atomic.Int64
	lsn         atomic.Uint64
	degraded    atomic.Bool
}

// NoteAppend records one WAL record append of n encoded bytes.
func (c *WalCounters) NoteAppend(n int64) {
	c.appends.Add(1)
	c.bytes.Add(n)
}

// NoteFsync records one fsync of a log segment.
func (c *WalCounters) NoteFsync() { c.fsyncs.Add(1) }

// NoteCheckpoint records one completed checkpoint.
func (c *WalCounters) NoteCheckpoint() { c.checkpoints.Add(1) }

// SetCheckpointLast records how long the newest completed checkpoint
// took end to end (capture, table writes, commit, retention).
func (c *WalCounters) SetCheckpointLast(d time.Duration) { c.ckptLastNs.Store(int64(d)) }

// AddReplayed records n WAL records replayed during recovery.
func (c *WalCounters) AddReplayed(n int64) { c.replayed.Add(n) }

// Replayed reports the records replayed during recovery.
func (c *WalCounters) Replayed() int64 { return c.replayed.Load() }

// SetRecoveryNs records the wall time recovery took.
func (c *WalCounters) SetRecoveryNs(ns int64) { c.recoveryNs.Store(ns) }

// SetLSN publishes the newest durable log sequence number.
func (c *WalCounters) SetLSN(lsn uint64) { c.lsn.Store(lsn) }

// SetDegraded flips the degraded read-only flag.
func (c *WalCounters) SetDegraded(v bool) { c.degraded.Store(v) }

// Snapshot captures the current values.
func (c *WalCounters) Snapshot() WalSnapshot {
	return WalSnapshot{
		Appends:          c.appends.Load(),
		Bytes:            c.bytes.Load(),
		Fsyncs:           c.fsyncs.Load(),
		Checkpoints:      c.checkpoints.Load(),
		CheckpointLastMs: float64(c.ckptLastNs.Load()) / 1e6,
		Replayed:         c.replayed.Load(),
		RecoveryNs:       c.recoveryNs.Load(),
		LSN:              c.lsn.Load(),
		Degraded:         c.degraded.Load(),
	}
}

// WalSnapshot is an immutable copy of WalCounters, shaped for the
// per-graph stats JSON. CheckpointBlockReads and InplaceFoldbacks are not
// counters of this struct's: the durable shell fills them in.
type WalSnapshot struct {
	Appends     int64 `json:"wal_appends"`
	Bytes       int64 `json:"wal_bytes"`
	Fsyncs      int64 `json:"wal_fsyncs"`
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointBlockReads counts the blocks checkpoints have read to
	// stream their pinned view (the graph's live tables, through a
	// second handle of their own); they never appear in the engine's own
	// io counters.
	CheckpointBlockReads int64 `json:"checkpoint_block_reads"`
	// CheckpointLastMs is the duration of the newest completed checkpoint.
	CheckpointLastMs float64 `json:"checkpoint_last_ms"`
	// InplaceFoldbacks counts the fold-backs the hard bound (twice
	// BufferArcs) made on the writer instead of adopting a checkpoint.
	InplaceFoldbacks int64  `json:"inplace_foldbacks"`
	Replayed         int64  `json:"replayed_records"`
	RecoveryNs       int64  `json:"recovery_ns"`
	LSN              uint64 `json:"lsn"`
	Degraded         bool   `json:"degraded"`
}
