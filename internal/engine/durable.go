package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/wal"
)

// DurabilityOptions switches the registry into data-dir mode: every
// opened graph gets a write-ahead log and checkpoints under
// Dir/<name>/, and Recover rebuilds graphs from that state on startup.
type DurabilityOptions struct {
	// Dir is the data directory root; one subdirectory per graph.
	Dir string
	// Policy is the WAL sync policy (always / interval / never); under
	// the interval policy the log is also fsynced every 100ms.
	Policy wal.SyncPolicy
	// CheckpointEvery is the background checkpoint period; 0 disables
	// periodic checkpoints (they still happen on clean Close, after
	// recovery, when the update buffer fills, and via Checkpointer).
	CheckpointEvery time.Duration
	// SegmentBytes is the log segment roll threshold; 0 selects the WAL
	// default.
	SegmentBytes int64
	// FS routes durability file operations; nil selects the real
	// filesystem. The crash suite installs a faultfs.Injector.
	FS faultfs.FS
}

// syncInterval is the background fsync cadence under the interval
// policy.
const syncInterval = 100 * time.Millisecond

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// ErrDegraded reports a write on a graph serving degraded read-only:
// recovery found damage past repair, so mutations are refused while
// reads keep working.
var ErrDegraded = errors.New("engine: graph is degraded (read-only)")

// Checkpointer is the optional engine extension for forcing a
// checkpoint; durable engines implement it and the HTTP layer mounts it
// at POST /g/{name}/checkpoint. It and ChangeStreamer are the two things
// only some engines can do, found with a type assertion on the Engine;
// what an engine merely has to say about itself is in its Report.
type Checkpointer interface {
	Checkpoint() error
}

// ChangeStreamer is the optional engine extension replication leaders
// implement: a cursor over the write-ahead log itself, the current
// commit-point LSN, and an open handle on the newest committed
// checkpoint. The HTTP layer mounts it at GET /g/{name}/changes and GET
// /g/{name}/checkpoint.
type ChangeStreamer interface {
	// Changes opens a cursor over the logged records with LSN > from: only
	// records the log took, as far back as log retention — which is
	// checkpoint retention — reaches (*wal.TrimmedError past that). A
	// degraded graph is not a stream source and returns its error.
	Changes(from uint64) (*wal.Tail, error)
	// CurrentLSN reports the newest allocated LSN.
	CurrentLSN() uint64
	// OpenCheckpoint pins and opens the newest committed checkpoint for
	// download; the caller must Close the handle.
	OpenCheckpoint() (*wal.CheckpointHandle, error)
}

// walFailure is the sticky error after a WAL append or fsync fails:
// the engine refuses new writes (applied-but-unlogged state would
// silently diverge from what a restart recovers).
type walFailure struct{ err error }

// durable wraps an inner engine with the durability layer. It owns the
// graph-level commit point: a single mutex ordering LSN allocation
// against checkpoint captures and stats reads, so the WAL is a
// linearized redo log of exactly what the writer applied.
//
// It keeps no copy of the adjacency on any backend: a checkpoint streams
// a view pinned on the graph's own files, and folds the update buffer
// back when it is past its fill (checkpoint below).
type durable struct {
	name  string
	inner *Live // the graph under live/, in service; owned
	gd    *wal.GraphDir
	ctr   stats.Counters[stats.WalSnapshot] // the counters; Report reads the gauges
	opts  DurabilityOptions

	mu  sync.Mutex // the commit point: guards lsn
	lsn uint64     // the published state's LSN (records allocated so far)

	enc []byte // record scratch, owned by the writer goroutine

	broken   atomic.Pointer[walFailure]
	degraded error // non-nil seals the engine read-only; set before serving starts, immutable after

	fill      int           // the configured BufferArcs; the graph's own bound is twice it
	full      chan struct{} // onApply's signal to the checkpoint loop
	foldBacks int64         // the graph's FoldBacks counted so far; writer-owned

	ckptMu    sync.Mutex
	ckptLSN   int64 // the newest valid checkpoint's LSN, -1 before the first; guarded by ckptMu
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

func newDurable(name string, opts DurabilityOptions) *durable {
	return &durable{
		name:    name,
		opts:    opts,
		full:    make(chan struct{}, 1),
		ckptLSN: -1,
		quit:    make(chan struct{}),
	}
}

// onApply is the durability hook, installed as the writer session's
// OnApply callback. It runs post-apply on the writer goroutine with the
// exact net batch; under the commit point it stamps the batch with the
// next LSN, then appends the framed record to the log outside the lock
// (appends are already ordered by the writer goroutine). Followers read
// the record from the log once that append has finished, and never one
// whose append failed. Recovery's replay never comes through here:
// OnApply observes user flushes only, and the records replay applies
// already exist. A buffer past its fill only signals the checkpoint loop.
func (d *durable) onApply(deletes, inserts []kcore.Edge) {
	if len(deletes)+len(inserts) == 0 {
		return
	}
	if fb := d.inner.G.FoldBacks(); fb > d.foldBacks { // the hard bound fired in this flush
		d.ctr.Update(func(s *stats.WalSnapshot) { s.InplaceFoldbacks += fb - d.foldBacks })
		d.foldBacks = fb
	}
	if d.inner.G.BufferedArcs() > d.fill && len(d.full) == 0 { // the only sender
		d.full <- struct{}{}
	}
	d.mu.Lock()
	d.lsn++
	lsn := d.lsn
	d.mu.Unlock()
	if d.broken.Load() != nil {
		// The log already failed: the LSN keeps tracking what the writer
		// applies (/stats describes the served state), but the log takes
		// nothing behind a failed append.
		return
	}
	d.enc = wal.AppendRecord(d.enc[:0], lsn, deletes, inserts)
	if err := d.gd.Log().Append(d.enc, lsn); err != nil {
		d.noteBroken(fmt.Errorf("engine: wal append (graph %q): %w", d.name, err))
	}
}

func (d *durable) noteBroken(err error) {
	d.broken.CompareAndSwap(nil, &walFailure{err: err})
}

// markDegraded seals the engine read-only before it is published.
func (d *durable) markDegraded(reason string) {
	d.degraded = fmt.Errorf("%w: %s", ErrDegraded, reason)
}

// startLoops launches the background fsync ticker (interval policy) and
// the checkpoint loop: periodic, and on every fill onApply signals.
func (d *durable) startLoops() {
	if d.opts.Policy == wal.SyncInterval {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			t := time.NewTicker(syncInterval)
			defer t.Stop()
			for {
				select {
				case <-d.quit:
					return
				case <-t.C:
					if err := d.gd.Sync(); err != nil {
						d.noteBroken(fmt.Errorf("engine: wal fsync (graph %q): %w", d.name, err))
					}
				}
			}
		}()
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		var tick <-chan time.Time
		if d.opts.CheckpointEvery > 0 {
			t := time.NewTicker(d.opts.CheckpointEvery)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-d.quit:
				return
			case <-tick:
			case <-d.full:
				if d.inner.G.BufferedArcs() <= d.fill {
					continue // a checkpoint since the signal folded it back
				}
			}
			d.checkpoint(true) //nolint:errcheck // best-effort: the previous checkpoints stay valid, the next tick or fill retries
		}
	}()
}

// checkpoint persists the graph's adjacency and core numbers as of one
// exact LSN. It serializes with other checkpoints and starts with a
// barrier on the inner session (serve.ConcurrentSession.Do), so the
// checkpoint covers everything enqueued so far. The barrier itself is
// the capture: a view of the adjacency that costs O(update buffer) to
// take, the epoch published at that flush boundary and the LSN are all
// read on the writer goroutine, so the stored cores always match the
// stored adjacency, and the writer goes back to applying updates while
// the view is streamed to the checkpoint tables from this goroutine. The
// state the newest valid checkpoint holds is not written again. With
// adopt, a view pinned past the fill is the fold-back: once committed, the
// writer adopts it at its next flush boundary (kcore.Graph.Adopt), unless
// the hard bound folded the buffer back meanwhile (dyngraph.ErrStale).
func (d *durable) checkpoint(adopt bool) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	t0 := time.Now()
	var (
		vw     *kcore.View
		ep     *serve.Epoch
		lsn    uint64
		pinErr error
	)
	err := d.inner.Do(func() {
		if lsn = d.CurrentLSN(); int64(lsn) == d.ckptLSN {
			return
		}
		vw, pinErr = d.inner.G.Pin()
		ep = d.inner.Snapshot()
		adopt = adopt && d.inner.G.BufferedArcs() > d.fill
	})
	if err == nil {
		err = pinErr
	}
	if err != nil || vw == nil {
		return err
	}
	defer vw.Release()
	vw.ChargeTo(d.gd.IO())
	tables, err := d.gd.Checkpoint(lsn, vw, ep.Cores())
	if err != nil {
		return err
	}
	d.ckptLSN = int64(lsn)
	d.ctr.Update(func(s *stats.WalSnapshot) { s.CheckpointLastMs = float64(time.Since(t0)) / 1e6 })
	if !adopt {
		return nil
	}
	var aerr error
	if err := d.inner.Do(func() {
		if aerr = d.inner.G.Adopt(vw, tables); aerr == nil {
			d.foldBacks++
		}
	}); err != nil || errors.Is(aerr, dyngraph.ErrStale) {
		return err
	}
	return aerr
}

// replay applies the recovered WAL tail, one record at a time, each its
// own flush and epoch exactly as when it was logged (ApplyRecord), and
// moves the shell's LSN with every record that applied. A record the
// recovered graph does not take in full means checkpoint and log
// disagree; the first such is the error, and the LSN stops before it.
func (d *durable) replay(recs []wal.Record) error {
	var bad error // written on the writer goroutine, read after the Sync below
	for _, rec := range recs {
		err := ApplyRecord(d.inner.ConcurrentSession, rec, func(_ *serve.Epoch, err error) {
			if bad != nil {
				return
			}
			if bad = err; bad == nil {
				d.mu.Lock()
				d.lsn = rec.LSN
				d.mu.Unlock()
			}
		})
		if err != nil {
			return err
		}
	}
	if err := d.inner.Sync(); err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	d.ctr.Update(func(s *stats.WalSnapshot) { s.Replayed += int64(len(recs)) })
	return nil
}

// --- Engine interface ---

func (d *durable) Snapshot() *serve.Epoch { return d.inner.Snapshot() }

func (d *durable) Enqueue(ups ...serve.Update) error {
	if d.degraded != nil {
		return d.degraded
	}
	if f := d.broken.Load(); f != nil {
		return f.err
	}
	return d.inner.Enqueue(ups...)
}

func (d *durable) Apply(ups ...serve.Update) error {
	if err := d.Enqueue(ups...); err != nil {
		return err
	}
	return d.Sync()
}

// Sync is the durable commit point: after the inner barrier (all
// submitted updates applied and published, so their records are
// appended), the log is fsynced before the Sync is acknowledged — under
// the always and interval policies an acked Sync therefore survives any
// crash.
func (d *durable) Sync() error {
	if d.degraded != nil {
		return d.degraded
	}
	if err := d.inner.Sync(); err != nil {
		return err
	}
	if f := d.broken.Load(); f != nil {
		return f.err
	}
	if err := d.gd.Sync(); err != nil {
		d.noteBroken(fmt.Errorf("engine: wal fsync (graph %q): %w", d.name, err))
		return d.broken.Load().err
	}
	return nil
}

// Report adds the WAL/checkpoint/recovery block to the session's report:
// the counters, and the gauges read from the checkpoint reader, the
// commit point and the failure state.
func (d *durable) Report() serve.Report {
	w := d.ctr.Snapshot()
	w.CheckpointBlockReads = d.gd.IO().Snapshot().Reads
	w.LSN = d.CurrentLSN()
	w.Degraded = d.degraded != nil || d.broken.Load() != nil
	r := d.inner.Report()
	r.Disk.OverlayLimit = d.fill // not the hard bound the graph is opened with
	r.Durability = &w
	return r
}

// Checkpoint implements Checkpointer.
func (d *durable) Checkpoint() error {
	if d.degraded != nil {
		return d.degraded
	}
	return d.checkpoint(true)
}

// Changes implements ChangeStreamer.
func (d *durable) Changes(from uint64) (*wal.Tail, error) {
	if d.degraded != nil {
		return nil, d.degraded
	}
	return d.gd.Log().Tail(from)
}

// CurrentLSN implements ChangeStreamer.
func (d *durable) CurrentLSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lsn
}

// OpenCheckpoint implements ChangeStreamer: the checkpoint mutex pins
// the newest committed checkpoint against retention while its files are
// opened; once the fds are held, a concurrent checkpoint's retention
// pass can remove the directory without hurting the download. A
// follower can always stream on from it: retention drops only segments
// wholly at or below the older retained checkpoint.
func (d *durable) OpenCheckpoint() (*wal.CheckpointHandle, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.gd.OpenNewestCheckpoint()
}

// Close stops the background loops, drains the inner engine, takes a
// final checkpoint (clean shutdowns therefore restart with an empty
// replay tail), then tears everything down. Resources are always
// released, even when the durability layer is broken or crashed.
func (d *durable) Close() error {
	d.closeOnce.Do(func() {
		close(d.quit)
		d.wg.Wait()
		var firstErr error
		if d.degraded == nil {
			syncErr := d.inner.Sync()
			if syncErr == nil && d.broken.Load() == nil {
				firstErr = d.checkpoint(true)
			} else if firstErr == nil {
				firstErr = syncErr
			}
			if err := d.gd.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if d.gd != nil {
			if err := d.gd.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := d.inner.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if f := d.broken.Load(); f != nil && firstErr == nil {
			firstErr = f.err
		}
		d.closeErr = firstErr
	})
	return d.closeErr
}
