package stats

import "sync/atomic"

// ReplicaCounters instruments one replication follower: its apply
// cursor, the leader LSN it has observed, stream health (reconnects,
// heartbeats, bytes), and the apply-to-visible lag of the most recent
// record. All fields are atomics — the stream goroutine, the apply
// session's writer goroutine, and stats readers never contend.
type ReplicaCounters struct {
	appliedLSN atomic.Uint64
	leaderLSN  atomic.Uint64
	records    atomic.Int64
	duplicates atomic.Int64
	heartbeats atomic.Int64
	reconnects atomic.Int64
	bootstraps atomic.Int64
	catchup    atomic.Int64
	stream     atomic.Int64
	lagNs      atomic.Int64
	lagNsSum   atomic.Int64
	lagNsCount atomic.Int64
}

// SetAppliedLSN publishes the cursor: the LSN of the newest record whose
// epoch is visible to readers.
func (c *ReplicaCounters) SetAppliedLSN(lsn uint64) { c.appliedLSN.Store(lsn) }

// AppliedLSN reports the follower's apply cursor.
func (c *ReplicaCounters) AppliedLSN() uint64 { return c.appliedLSN.Load() }

// ObserveLeaderLSN ratchets the highest leader LSN seen on the stream
// (batch frames and heartbeats both carry one).
func (c *ReplicaCounters) ObserveLeaderLSN(lsn uint64) {
	for {
		cur := c.leaderLSN.Load()
		if lsn <= cur || c.leaderLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// NoteRecord counts one batch record applied from the stream.
func (c *ReplicaCounters) NoteRecord() { c.records.Add(1) }

// NoteDuplicate counts a record at or below the cursor, skipped.
func (c *ReplicaCounters) NoteDuplicate() { c.duplicates.Add(1) }

// NoteHeartbeat counts one heartbeat frame.
func (c *ReplicaCounters) NoteHeartbeat() { c.heartbeats.Add(1) }

// NoteReconnect counts one stream (re)connect attempt after a failure.
func (c *ReplicaCounters) NoteReconnect() { c.reconnects.Add(1) }

// Reconnects reports the reconnect count.
func (c *ReplicaCounters) Reconnects() int64 { return c.reconnects.Load() }

// NoteBootstrap counts one checkpoint catch-up of n downloaded bytes
// that put the follower at the checkpoint's LSN: cursor and observed
// leader LSN both restart there (after a fork, the abandoned history's
// LSN would otherwise read as lag until the leader passed it).
func (c *ReplicaCounters) NoteBootstrap(n int64, lsn uint64) {
	c.bootstraps.Add(1)
	c.catchup.Add(n)
	c.appliedLSN.Store(lsn)
	c.leaderLSN.Store(lsn)
}

// Bootstraps reports the checkpoint catch-up count.
func (c *ReplicaCounters) Bootstraps() int64 { return c.bootstraps.Load() }

// AddStreamBytes accounts bytes consumed from the change stream.
func (c *ReplicaCounters) AddStreamBytes(n int64) { c.stream.Add(n) }

// NoteLag records one record's apply-to-visible latency.
func (c *ReplicaCounters) NoteLag(ns int64) {
	c.lagNs.Store(ns)
	c.lagNsSum.Add(ns)
	c.lagNsCount.Add(1)
}

// MeanLagNs reports the mean apply-to-visible latency so far.
func (c *ReplicaCounters) MeanLagNs() float64 {
	n := c.lagNsCount.Load()
	if n == 0 {
		return 0
	}
	return float64(c.lagNsSum.Load()) / float64(n)
}

// Snapshot captures the current values.
func (c *ReplicaCounters) Snapshot() ReplicaSnapshot {
	applied := c.appliedLSN.Load()
	leader := c.leaderLSN.Load()
	var lagEpochs uint64
	if leader > applied {
		lagEpochs = leader - applied
	}
	return ReplicaSnapshot{
		AppliedLSN:   applied,
		LeaderLSN:    leader,
		LagEpochs:    lagEpochs,
		LagNs:        c.lagNs.Load(),
		Reconnects:   c.reconnects.Load(),
		Bootstraps:   c.bootstraps.Load(),
		CatchupBytes: c.catchup.Load(),
		StreamBytes:  c.stream.Load(),
		Records:      c.records.Load(),
		Duplicates:   c.duplicates.Load(),
		Heartbeats:   c.heartbeats.Load(),
	}
}

// ReplicaSnapshot is an immutable copy of ReplicaCounters, shaped for
// the per-graph stats JSON.
type ReplicaSnapshot struct {
	AppliedLSN   uint64 `json:"applied_lsn"`
	LeaderLSN    uint64 `json:"leader_lsn"`
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
