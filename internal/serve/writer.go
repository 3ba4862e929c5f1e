package serve

import (
	"fmt"
	"time"

	"kcore"
	"kcore/internal/stats"
)

// run is the writer goroutine: the sole mutator of the graph and the
// maintainer. It drains the ingest queue, coalescing updates until either
// MaxBatch are pending or FlushInterval has elapsed since the first
// pending update, then applies and publishes them as one epoch.
func (s *ConcurrentSession) run() {
	defer s.wg.Done()
	pending := make([]Update, 0, s.opts.MaxBatch)
	// Go 1.23+ timer semantics: Stop/Reset discard any pending fire, so
	// the channel must never be drained manually (a receive after Stop
	// returns false would block forever).
	timer := time.NewTimer(s.opts.FlushInterval)
	timer.Stop()
	defer timer.Stop()

	flush := func() {
		s.flush(pending, false)
		pending = pending[:0]
	}
	for {
		var env envelope
		var ok bool
		if len(pending) == 0 {
			// Idle: block until work arrives or the queue closes. The
			// flush timer is NOT armed here — the envelope may be a
			// barrier, which opens no batch; arming on it made the timer
			// fire spuriously on an empty pending set one interval after
			// every idle-state Sync. The timer is armed below, when a real
			// update actually opens a batch.
			env, ok = <-s.queue
			if !ok {
				flush()
				return
			}
		} else {
			select {
			case env, ok = <-s.queue:
				if !ok {
					flush()
					return
				}
			case <-timer.C:
				flush()
				continue
			}
		}
		if env.barrier != nil {
			// Barrier: apply everything before it, then run it.
			flush()
			var err error
			if f := s.failure.Load(); f != nil {
				err = f.err
			}
			env.barrier(err)
			continue
		}
		if env.done != nil {
			// Isolated batch: flush everything enqueued before it first
			// (FIFO), then flush the internal batch as its own window so
			// it cannot coalesce or annihilate against user updates, and
			// tell its submitter what became of it.
			flush()
			env.done(s.flush(env.internal, true))
			continue
		}
		if len(pending) == 0 {
			// First update of a new batch: bound its staleness from the
			// moment it arrived.
			timer.Reset(s.opts.FlushInterval)
		}
		pending = append(pending, env.up)
		if len(pending) >= s.opts.MaxBatch {
			flush()
		}
	}
}

// edgeState tracks one edge while the pending updates are replayed at
// flush time: its live presence as the valid ops toggle it, the first
// valid op, and how many valid ops hit it (they strictly alternate, so
// first+count determine the net effect).
type edgeState struct {
	present bool
	first   Op
	count   int
}

// flush coalesces the pending updates to their net effect per edge and
// applies that as at most one delete batch plus one insert batch,
// publishing one new epoch covering the whole flush.
//
// Coalescing replays the updates in order against the live edge set:
// updates that are invalid at their point in the sequence (out-of-range
// ids, self-loops, duplicate inserts, deletes of absent edges) are
// rejected and counted, never failing the batch. The surviving ops on
// one edge strictly alternate insert/delete, so they cancel in pairs —
// the cancelled pairs are counted as annihilated and never reach the
// maintenance algorithms — and at most one net op per edge remains.
// Distinct edges commute, so applying all net deletes then all net
// inserts reaches exactly the state the original sequence would have;
// readers only ever observe the post-flush epoch, never an intermediate
// state, so the reordering is invisible.
//
// A maintenance error can leave a partially applied batch in the
// internal state; in that case the flush publishes nothing — the session
// is fatally failed and the last published epoch (a whole-flush boundary)
// stays frozen, so the torn state is never visible to readers.
//
// The result says what became of the updates; OnApply observes the flush
// unless it is an internal batch's.
func (s *ConcurrentSession) flush(pending []Update, internal bool) BatchResult {
	// failed is the verdict when nothing of this flush reaches the
	// published state: every update of it counts as rejected, so that
	// enqueued = applied + rejected + annihilated holds across a failure.
	failed := func() BatchResult {
		s.ctr.Update(func(c *stats.ServeSnapshot) { c.Rejected += int64(len(pending)) })
		return BatchResult{Epoch: s.cur.Load(), Rejected: len(pending), Err: s.failure.Load().err}
	}
	if len(pending) == 0 {
		return BatchResult{Epoch: s.cur.Load()}
	}
	if s.failure.Load() != nil {
		return failed()
	}
	n := s.g.NumNodes()
	rejected := 0
	states := make(map[uint64]*edgeState, len(pending))
	keys := make([]uint64, 0, len(pending))
	for _, up := range pending {
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		if v >= n || u == v {
			rejected++
			continue
		}
		key := uint64(u)<<32 | uint64(v)
		st, ok := states[key]
		if !ok {
			present, err := s.g.HasEdge(u, v)
			if err != nil {
				s.fail(fmt.Errorf("serve: validate %s (%d,%d): %w", up.Op, u, v, err))
				return failed()
			}
			st = &edgeState{present: present}
			states[key] = st
			keys = append(keys, key)
		}
		if (up.Op == OpInsert) == st.present {
			rejected++
			continue
		}
		if st.count == 0 {
			st.first = up.Op
		}
		st.count++
		st.present = !st.present
	}
	var inserts, deletes []kcore.Edge
	annihilated := 0
	for _, key := range keys {
		st := states[key]
		annihilated += st.count - st.count%2
		if st.count%2 == 0 {
			continue
		}
		e := kcore.Edge{U: uint32(key >> 32), V: uint32(key)}
		if st.first == OpInsert {
			inserts = append(inserts, e)
		} else {
			deletes = append(deletes, e)
		}
	}
	s.ctr.Update(func(c *stats.ServeSnapshot) {
		c.Rejected += int64(rejected)
		c.Annihilated += int64(annihilated)
	})

	// Deletes first: each edge carries at most one net op, so the two
	// same-kind batches touch disjoint edges and commute.
	applied, dirty, err := s.applyBatches(deletes, inserts)
	if err != nil {
		s.fail(err)
		// The failed batches are lost from the published state; account
		// for them so enqueued = applied + rejected + annihilated stays
		// an invariant across the failure.
		lost := len(deletes) + len(inserts) - applied
		s.ctr.Update(func(c *stats.ServeSnapshot) { c.Rejected += int64(lost) })
		return BatchResult{Epoch: s.cur.Load(), Applied: applied, Rejected: rejected + lost, Annihilated: annihilated, Err: err}
	}
	if applied > 0 {
		if !internal && s.opts.OnApply != nil {
			s.opts.OnApply(deletes, inserts)
		}
		s.publishDelta(applied, dirty)
	}
	return BatchResult{Epoch: s.cur.Load(), Applied: applied, Rejected: rejected, Annihilated: annihilated}
}

// applyBatches runs the net flush through the maintainer — the delete
// batch, then the insert batch — and returns the applied count plus the
// concatenated raw dirty sets. On error the caller must fail the
// session; nothing has been published.
func (s *ConcurrentSession) applyBatches(deletes, inserts []kcore.Edge) (applied int, dirty []uint32, err error) {
	apply := func(op Op, edges []kcore.Edge) error {
		if len(edges) == 0 {
			return nil
		}
		var info kcore.RunInfo
		var err error
		if op == OpInsert {
			info, err = s.m.InsertEdges(edges)
		} else {
			info, err = s.m.DeleteEdges(edges)
		}
		if err != nil {
			return fmt.Errorf("serve: apply %s batch of %d: %w", op, len(edges), err)
		}
		s.ctr.Update(func(c *stats.ServeSnapshot) { c.NoteBatch(len(edges)) })
		applied += len(edges)
		dirty = append(dirty, info.Dirty...)
		return nil
	}
	if err := apply(OpDelete, deletes); err != nil {
		return applied, dirty, err
	}
	err = apply(OpInsert, inserts)
	return applied, dirty, err
}
