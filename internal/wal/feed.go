package wal

import (
	"fmt"
	"sync"

	"kcore/internal/memgraph"
)

// Feed is the in-memory change-stream window a leader serves replicas
// from: the most recent applied batch records, LSN-contiguous, bounded
// by record-count and byte caps. The durability layer appends to it
// under the graph's commit point (so the feed is strictly LSN-ordered
// and gap-free), and the HTTP changes handler tails it per follower.
//
// Cursor semantics: a follower's cursor is the LSN of the last record
// it has applied; TailFrom(cursor) returns the records after it. When
// retention has trimmed past a cursor the feed returns a TrimmedError
// carrying the oldest cursor it can still serve — the follower's signal
// to fall back to checkpoint catch-up.
type Feed struct {
	mu      sync.Mutex
	recs    []Record
	bytes   int64
	maxRecs int
	maxByte int64
	trimmed uint64 // oldest servable cursor: records with LSN <= trimmed are gone
	notify  chan struct{}
	closed  bool
}

// TrimmedError reports a cursor older than the feed's retention window.
type TrimmedError struct {
	// Oldest is the oldest cursor the feed can still serve from.
	Oldest uint64
}

func (e *TrimmedError) Error() string {
	return fmt.Sprintf("wal: change feed trimmed (oldest servable cursor %d)", e.Oldest)
}

// NewFeed builds a feed bounded to maxRecords records and maxBytes of
// encoded edges (whichever trips first); values <= 0 select 8192
// records and 8 MiB.
func NewFeed(maxRecords int, maxBytes int64) *Feed {
	if maxRecords <= 0 {
		maxRecords = 8192
	}
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	return &Feed{maxRecs: maxRecords, maxByte: maxBytes, notify: make(chan struct{})}
}

// recBytes approximates a record's wire size for the byte cap.
func recBytes(r Record) int64 {
	return int64(frameHeaderSize + payloadSize(len(r.Deletes), len(r.Inserts)))
}

// Append publishes the applied batch stamped lsn. The caller must hold
// the graph's commit point while calling, so appends are strictly
// LSN-increasing; the edge slices are copied (they are writer-owned
// scratch).
func (f *Feed) Append(lsn uint64, deletes, inserts []memgraph.Edge) {
	edges := make([]memgraph.Edge, len(deletes)+len(inserts))
	copy(edges, deletes)
	copy(edges[len(deletes):], inserts)
	rec := Record{
		LSN:     lsn,
		Deletes: edges[:len(deletes):len(deletes)],
		Inserts: edges[len(deletes):],
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.recs = append(f.recs, rec)
	f.bytes += recBytes(rec)
	for (len(f.recs) > f.maxRecs || f.bytes > f.maxByte) && len(f.recs) > 1 {
		f.trimmed = f.recs[0].LSN
		f.bytes -= recBytes(f.recs[0])
		f.recs[0] = Record{}
		f.recs = f.recs[1:]
	}
	ch := f.notify
	f.notify = make(chan struct{})
	f.mu.Unlock()
	close(ch)
}

// Reset empties the feed and marks every cursor below lsn unservable.
// Recovery calls this after replay: the feed restarts at the recovered
// watermark, and followers with older cursors fall back to checkpoints.
func (f *Feed) Reset(lsn uint64) {
	f.mu.Lock()
	f.recs = nil
	f.bytes = 0
	f.trimmed = lsn
	f.mu.Unlock()
}

// TailFrom returns up to max records with LSN > from, in order. An
// empty result means the caller is caught up (wait on Wait()). A from
// older than the retention window returns a *TrimmedError.
func (f *Feed) TailFrom(from uint64, max int) ([]Record, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < f.trimmed {
		return nil, &TrimmedError{Oldest: f.trimmed}
	}
	// Records are LSN-contiguous starting at trimmed+1, so the first
	// record past from sits at index from-trimmed... except the feed may
	// have been reset; fall back to a scan only if the math is off.
	i := len(f.recs)
	if n := len(f.recs); n > 0 {
		first := f.recs[0].LSN
		if from < first {
			i = 0
		} else if from-first+1 < uint64(n) {
			i = int(from - first + 1)
		}
	}
	if i >= len(f.recs) {
		return nil, nil
	}
	out := f.recs[i:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	// The records (and their edge slices) are immutable once appended;
	// returning them without copying is safe.
	return append([]Record(nil), out...), nil
}

// OldestCursor reports the oldest cursor TailFrom will accept.
func (f *Feed) OldestCursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trimmed
}

// Wait returns a channel that is closed on the next Append (or Close).
// Capture it before a TailFrom that might come back empty, so an append
// racing the check cannot be missed.
func (f *Feed) Wait() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.notify
}

// Close wakes all waiters permanently; further Appends are dropped.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ch := f.notify
	f.mu.Unlock()
	close(ch)
}
