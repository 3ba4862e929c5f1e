// Package engine is the seam between the serving algorithms and the
// layers above them. It defines Engine — the capability surface a
// query/update backend must offer — and Registry, which owns many named
// engines so one process can serve many graphs.
//
// internal/serve.ConcurrentSession is the canonical Engine; the HTTP
// layer (internal/httpapi) talks only to this package.
package engine

import (
	"errors"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/stats"
)

// Engine is one servable graph backend: lock-free epoch reads, queued
// writes, and observability. The serving contract is inherited from
// internal/serve: Snapshot never blocks and returns an immutable epoch
// (with per-epoch memoized queries), updates are applied asynchronously
// in enqueue order, Sync is the read-your-writes barrier, and Close
// drains then seals the engine (snapshots stay readable after).
type Engine interface {
	// Snapshot returns the current immutable epoch (one atomic load).
	Snapshot() *serve.Epoch
	// Enqueue submits updates in order, blocking only on backpressure.
	Enqueue(ups ...serve.Update) error
	// Apply enqueues updates and waits until they are published.
	Apply(ups ...serve.Update) error
	// Sync blocks until all previously enqueued updates are published.
	Sync() error
	// Counters exposes the engine's live serving counters.
	Counters() *stats.ServeCounters
	// Stats snapshots the counters (queue depth, batch shape, epoch
	// age, cache hit/miss).
	Stats() stats.ServeSnapshot
	// IOStats reports block I/O performed by the backend.
	IOStats() kcore.IOStats
	// Report says which backend serves the graph and snapshots the
	// counters of every layer the engine has (disk, durability, replica).
	Report() serve.Report
	// Close drains pending updates, publishes the final epoch and stops
	// the engine.
	Close() error
}

// ConcurrentSession is the reference implementation.
var _ Engine = (*serve.ConcurrentSession)(nil)

var (
	// ErrReadOnly reports a write on a read-only engine: a replication
	// follower refuses local mutations (its state is exactly the
	// leader's change stream, applied in LSN order).
	ErrReadOnly = errors.New("engine: graph is a read-only follower")
	// ErrNotFound reports a graph name with no registered engine.
	ErrNotFound = errors.New("engine: graph not found")
	// ErrExists reports a registration under an already-taken name.
	ErrExists = errors.New("engine: graph already registered")
	// ErrClosed reports use of a closed registry.
	ErrClosed = errors.New("engine: registry closed")
	// ErrBadName reports an invalid graph name.
	ErrBadName = errors.New("engine: bad graph name (want 1-64 chars of [A-Za-z0-9._-])")
)
