// Package engine is the seam between the serving algorithms and the
// layers above them. It defines Engine — the capability surface a
// query/update backend must offer — and Registry, which owns many named
// engines so one process can serve many graphs.
//
// It also owns the two things every way of getting a graph into service
// shares: BringUp (tables at a path → kcore.Open on the configured
// frames → serve.New, checked against the core numbers a
// checkpoint stored) and ApplyRecord (one logged record → one isolated
// flush → one epoch). A first open, crash recovery and a replication
// follower's bootstrap (internal/replica) are all BringUp; recovery's
// WAL tail and a follower's change stream are both ApplyRecord. The
// HTTP layer (internal/httpapi) talks only to this package.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/wal"
)

// Engine is one servable graph backend: lock-free epoch reads, queued
// writes, and observability. The serving contract is inherited from
// internal/serve: Snapshot never blocks and returns an immutable epoch
// (queried lock-free, with no per-epoch state), updates are applied asynchronously
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
	// Report says which backend serves the graph and snapshots the
	// counters of every layer the engine has: serving and block I/O
	// always, then disk, durability and replica where they exist.
	Report() serve.Report
	// Close drains pending updates, publishes the final epoch, stops
	// the engine and releases the graph under it.
	Close() error
}

// Live is a graph in service: its tables, open on the configured frames,
// and the session serving them. It is the plain Engine — what a registry
// without a data dir registers — and what the durable shell and a
// follower wrap.
type Live struct {
	*serve.ConcurrentSession
	G       *kcore.Graph
	backend string // Report's label: the frames as BackendConfig spells them
}

// ErrCoreMismatch reports tables that did not decompose to the core
// numbers their checkpoint stored. Core numbers are unique per graph, so
// the checkpoint's adjacency and its cores file disagree about what was
// made durable.
var ErrCoreMismatch = errors.New("engine: checkpoint core numbers disagree with its adjacency")

// BringUp puts the tables at path prefix base into service: opened with
// oo, decomposed with SemiCore*, served by a session tuned by so. want,
// when non-nil, is the core numbers a checkpoint stored beside those
// tables; if epoch 0 differs from them BringUp returns ErrCoreMismatch
// together with the graph, still in service — recovery serves it
// read-only, a follower closes it and downloads again. On every other
// error nothing stays open.
func BringUp(base string, oo kcore.OpenOptions, so serve.Options, want []uint32) (*Live, error) {
	g, err := kcore.Open(base, &oo)
	if err != nil {
		return nil, err
	}
	sess, err := serve.New(g, &so)
	if err != nil {
		g.Close() //nolint:errcheck // serve error wins
		return nil, err
	}
	l := &Live{ConcurrentSession: sess, G: g, backend: BackendMem}
	if oo.CacheBlocks > 0 {
		l.backend = BackendDisk
	}
	if want != nil && !slices.Equal(sess.Snapshot().Cores(), want) {
		return l, ErrCoreMismatch
	}
	return l, nil
}

// Report labels the session's report with the graph's frames:
// BackendMem for the default, BackendDisk for a count of the caller's.
func (l *Live) Report() serve.Report {
	r := l.ConcurrentSession.Report()
	r.Backend = l.backend
	return r
}

// Close drains and stops the session (tolerating one already stopped),
// then closes the graph.
func (l *Live) Close() error {
	err := l.ConcurrentSession.Close()
	if errors.Is(err, serve.ErrClosed) {
		err = nil
	}
	if cerr := l.G.Close(); err == nil {
		err = cerr
	}
	return err
}

// ApplyRecord pushes one logged batch record — from the local WAL tail at
// recovery, from the leader's change stream on a follower — through sess
// as one isolated flush, so it becomes exactly one epoch however records
// are queued around it. done runs on the writer goroutine right after
// that epoch is published (serve.ConcurrentSession.EnqueueInternal) with
// the epoch covering the record. The maintenance algorithms are
// deterministic in the graph and the update order, so a record logged
// from a flush applies in full on any copy of the state it was logged
// against; done's error says it did not — the writer failed, or the
// graph refused some of the updates — and the copy has diverged from
// the history.
func ApplyRecord(sess *serve.ConcurrentSession, rec wal.Record, done func(ep *serve.Epoch, err error)) error {
	ups := make([]serve.Update, 0, len(rec.Deletes)+len(rec.Inserts))
	for _, e := range rec.Deletes {
		ups = append(ups, serve.Update{Op: serve.OpDelete, U: e.U, V: e.V})
	}
	for _, e := range rec.Inserts {
		ups = append(ups, serve.Update{Op: serve.OpInsert, U: e.U, V: e.V})
	}
	return sess.EnqueueInternal(ups, func(res serve.BatchResult) {
		err := res.Err
		if refused := res.Rejected + res.Annihilated; err == nil && refused > 0 {
			err = fmt.Errorf("the graph refused %d of its %d updates", refused, len(ups))
		}
		if err != nil {
			err = fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		done(res.Epoch, err)
	})
}

var (
	// ErrReadOnly reports a write on a read-only engine: a replication
	// follower refuses local mutations (its state is exactly the
	// leader's change stream, applied in LSN order).
	ErrReadOnly = errors.New("engine: graph is a read-only follower")
	// ErrNotFound reports a graph name with no registered engine.
	ErrNotFound = errors.New("engine: graph not found")
	// ErrExists reports a registration under an already-taken name.
	ErrExists = errors.New("engine: graph already registered")
	// ErrUnrecovered refuses an open over durable state Recover could not bring back.
	ErrUnrecovered = errors.New("engine: the graph's durable state did not recover")
	// ErrClosed reports use of a closed registry.
	ErrClosed = errors.New("engine: registry closed")
	// ErrBadName reports an invalid graph name.
	ErrBadName = errors.New("engine: bad graph name (want 1-64 chars of [A-Za-z0-9._-])")
)
