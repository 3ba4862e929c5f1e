// Package replica implements the follower side of replication: a
// read-only engine that bootstraps from a leader's checkpoint download
// (engine.BringUp, the bring-up crash recovery uses), tails its change
// stream (GET /g/{name}/changes — the leader's WAL segments as they are
// on disk, read by the wal.FrameReader that reads them), and applies each
// record exactly as recovery applies a WAL tail (engine.ApplyRecord: one
// isolated flush, one epoch), so every published follower epoch is
// exactly one leader commit-point state. Reads are epoch-consistent and
// bounded-stale; local writes are refused with engine.ErrReadOnly.
//
// Cursor protocol: the follower's cursor is the LSN of the newest record
// whose epoch is published; it advances in that record's completion
// callback and nowhere else. On reconnect it resumes from the cursor
// (records at or below it are duplicates and skipped — exactly-once
// apply), and when the leader answers 410 Gone (checkpoint retention
// removed the log segment the cursor needs) it falls back to a fresh
// checkpoint bootstrap. A mid-stream fault — torn frame, CRC failure, LSN
// gap, heartbeat silence — closes the connection and re-enters the same
// loop, so a follower never serves a torn or out-of-order state. Two
// things prove the local copy is not the leader's history, and both
// rebuild it from a checkpoint: a record the local graph does not take
// in full — any update of it refused, or the writer failed — after which
// the cursor stops for good; and a leader behind the cursor (an
// X-Kcore-LSN header or a heartbeat below it), which went back in
// history and re-issues LSNs this copy holds other records under.
package replica

import (
	"archive/tar"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/wal"
)

// Options configures a Follower. Leader is required; the zero value of
// everything else selects defaults.
type Options struct {
	// Leader is the base URL of the leader's HTTP API (http://host:port).
	Leader string
	// Graph is the graph name on the leader; empty selects "default".
	Graph string
	// Dir is the local working directory for downloaded checkpoints.
	// Empty creates a temp dir that Close removes.
	Dir string
	// Serve tunes the local apply session.
	Serve serve.Options
	// Open tunes the local graph handle: the block reader the downloaded
	// tables are served through (engine.BackendConfig.OpenOptions
	// resolves a -backend / -cache-blocks pair into it).
	Open kcore.OpenOptions
	// Client issues the HTTP requests; nil uses a private client with no
	// global timeout (the change stream is long-lived — liveness comes
	// from HeartbeatTimeout).
	Client *http.Client
	// BootstrapRetries bounds the initial bootstrap attempts in New;
	// 0 selects 5. Later catch-ups retry forever under the run loop's
	// reconnect backoff.
	BootstrapRetries int
	// ReconnectMin is the first reconnect backoff, doubled per failed
	// attempt up to 2s; 0 selects 50ms.
	ReconnectMin time.Duration
	// HeartbeatTimeout declares the stream dead when no frame (batch or
	// heartbeat) arrives for this long; 0 selects 5s. The leader
	// heartbeats idle streams every 500ms.
	HeartbeatTimeout time.Duration
	// OnApplied, when non-nil, observes every applied stream record from
	// the apply session's writer goroutine, immediately after the epoch
	// covering it is published. Intended for tests (conformance checks
	// capture per-LSN core numbers through it).
	OnApplied func(lsn uint64, ep *serve.Epoch)
}

func (o Options) withDefaults() Options {
	if o.Graph == "" {
		o.Graph = "default"
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.BootstrapRetries <= 0 {
		o.BootstrapRetries = 5
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	return o
}

// reconnectMax caps the exponential reconnect backoff.
const reconnectMax = 2 * time.Second

var (
	// errTrimmed reports a cursor the leader's log no longer reaches back
	// to (410 Gone) — fall back to checkpoint catch-up.
	errTrimmed = errors.New("replica: cursor behind the leader's log retention")
	// errDiverged reports a stream record the local state did not take in
	// full, or a leader behind the cursor — impossible while follower
	// state is a prefix of the leader's history, so the local copy is
	// rebuilt from a fresh checkpoint.
	errDiverged = errors.New("replica: local state diverged from the stream")
)

// state is the follower's current serving backend: the graph brought up
// from one downloaded checkpoint. Rebootstrap swaps in a whole new
// state; epochs from the old one stay readable.
type state struct {
	*engine.Live
	dir string // checkpoint subdir owning the graph files
	// diverged is set, on the apply session's writer goroutine, by the
	// first record that did not apply in full; no later record of this
	// state moves the cursor, and the stream loop rebuilds the state.
	diverged atomic.Bool
}

// Follower is a read-only replication engine (engine.Engine). Build one
// with New; register it under a Registry with Registry.Register.
type Follower struct {
	opts   Options
	ctr    stats.Counters[stats.ReplicaSnapshot] // the counters; Report derives the lag
	dir    string
	ownDir bool

	state   atomic.Pointer[state]
	bootSeq int // numbers checkpoint subdirs; touched only by the run loop

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

var _ engine.Engine = (*Follower)(nil)

// New bootstraps a follower from the leader's newest checkpoint
// (bounded by BootstrapRetries) and starts the background stream loop.
// On success the follower is immediately serveable at the checkpoint's
// LSN and converges toward the leader from there.
func New(opts Options) (*Follower, error) {
	if opts.Leader == "" {
		return nil, fmt.Errorf("replica: Options.Leader is required")
	}
	o := opts.withDefaults()
	f := &Follower{opts: o, dir: o.Dir}
	if f.dir == "" {
		dir, err := os.MkdirTemp("", "kcore-replica-*")
		if err != nil {
			return nil, fmt.Errorf("replica: temp dir: %w", err)
		}
		f.dir, f.ownDir = dir, true
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())

	var err error
	for attempt := 0; attempt < o.BootstrapRetries; attempt++ {
		if err = f.bootstrap(f.ctx); err == nil {
			break
		}
		select {
		case <-f.ctx.Done():
			err = f.ctx.Err()
		case <-time.After(o.ReconnectMin << attempt):
		}
	}
	if err != nil {
		f.cancel()
		if f.ownDir {
			os.RemoveAll(f.dir) //nolint:errcheck // bootstrap error wins
		}
		return nil, fmt.Errorf("replica: bootstrap from %s: %w", o.Leader, err)
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// bootstrap downloads, validates and serves the leader's newest
// checkpoint, replacing any current state. The old session is closed
// first (quiescing its writer so the cursor cannot move concurrently);
// its epochs stay readable until the swap.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/g/%s/checkpoint", f.opts.Leader, f.opts.Graph), nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: checkpoint download: %s: %s", resp.Status, body)
	}
	subdir := filepath.Join(f.dir, fmt.Sprintf("ckpt-%06d", f.bootSeq))
	f.bootSeq++
	// A restart over the same Dir may find a stale subdir from the
	// previous process; mixing its leftovers with this download would
	// corrupt validation, so start clean.
	if err := os.RemoveAll(subdir); err != nil {
		return err
	}
	if err := os.MkdirAll(subdir, 0o755); err != nil {
		return err
	}
	n, err := extractCheckpoint(resp.Body, subdir)
	if err != nil {
		os.RemoveAll(subdir) //nolint:errcheck // extract error wins
		return err
	}
	man, cores, err := wal.ValidateCheckpointDir(faultfs.OS, subdir)
	if err != nil {
		os.RemoveAll(subdir) //nolint:errcheck // validation error wins
		return fmt.Errorf("replica: downloaded checkpoint: %w", err)
	}

	// Quiesce the old session before touching the cursor: once it is
	// closed, none of its records' callbacks can race the reset below.
	old := f.state.Load()
	if old != nil {
		old.ConcurrentSession.Close() //nolint:errcheck // replaced either way
	}
	live, err := engine.BringUp(wal.CheckpointBase(subdir), f.opts.Open, f.opts.Serve, cores)
	if err != nil {
		if live != nil {
			live.Close() //nolint:errcheck // mismatch error wins
		}
		os.RemoveAll(subdir) //nolint:errcheck // bring-up error wins
		return fmt.Errorf("replica: downloaded checkpoint: %w", err)
	}
	// The cursor and the observed leader LSN both restart at the
	// checkpoint's: after a fork, the abandoned history's LSN would
	// otherwise read as lag until the leader passed it.
	f.ctr.Update(func(s *stats.ReplicaSnapshot) {
		s.Bootstraps++
		s.CatchupBytes += n
		s.AppliedLSN, s.LeaderLSN = man.LSN, man.LSN
	})
	f.state.Store(&state{Live: live, dir: subdir})
	if old != nil {
		old.Close()           //nolint:errcheck // replaced state
		os.RemoveAll(old.dir) //nolint:errcheck
	}
	return nil
}

// extractCheckpoint unpacks a checkpoint tar into dir, admitting only
// the canonical bundle file names, and reports the bytes written.
func extractCheckpoint(r io.Reader, dir string) (int64, error) {
	allowed := wal.CheckpointBundleNames()
	var total int64
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, fmt.Errorf("replica: checkpoint tar: %w", err)
		}
		if !slices.Contains(allowed, hdr.Name) {
			return total, fmt.Errorf("replica: checkpoint tar: unexpected entry %q", hdr.Name)
		}
		w, err := os.Create(filepath.Join(dir, hdr.Name))
		if err != nil {
			return total, err
		}
		n, err := io.Copy(w, tr)
		total += n
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return total, err
		}
	}
}

// run is the stream loop: tail the change stream, and on any failure
// reconnect from the cursor with exponential backoff — or rebuild from a
// checkpoint when the cursor is unservable (410) or the state diverged.
func (f *Follower) run() {
	defer f.wg.Done()
	delay := f.opts.ReconnectMin
	for {
		progressed, err := f.streamOnce(f.ctx)
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, errTrimmed) || errors.Is(err, errDiverged) {
			// Log retention has moved past the cursor (or the state is
			// bad): catch up from a fresh checkpoint. Failure falls through
			// to the normal backoff and tries again.
			if berr := f.bootstrap(f.ctx); berr == nil {
				progressed = true
			}
			if f.ctx.Err() != nil {
				return
			}
		}
		if progressed {
			delay = f.opts.ReconnectMin
		}
		f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.Reconnects++ })
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(delay):
		}
		delay = min(2*delay, reconnectMax)
	}
}

// streamOnce runs one stream connection to exhaustion. It reports
// whether the attempt made progress (applied records) and why it ended.
func (f *Follower) streamOnce(ctx context.Context) (progressed bool, err error) {
	st := f.state.Load()
	// Barrier first: records enqueued by a previous connection must be
	// published before the cursor is read, or the resume point would be
	// stale and re-fetch them.
	if err := st.Sync(); err != nil {
		return false, fmt.Errorf("%w: apply session: %v", errDiverged, err)
	}
	if st.diverged.Load() {
		return false, errDiverged
	}
	cursor := f.ctr.Snapshot().AppliedLSN

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		fmt.Sprintf("%s/g/%s/changes?from=%d", f.opts.Leader, f.opts.Graph, cursor), nil)
	if err != nil {
		return false, err
	}
	// The watchdog turns heartbeat silence into a dead connection: any
	// frame rearms it, and expiry cancels the request context, failing
	// the blocked read. Armed before Do so a stream that stalls during
	// the response headers is caught too.
	watchdog := time.AfterFunc(f.opts.HeartbeatTimeout, cancel)
	defer watchdog.Stop()
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512)) //nolint:errcheck // drained for reuse
		return false, errTrimmed
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("replica: change stream: %s: %s", resp.Status, body)
	}
	// The leader's LSN never falls behind anything it logged. Below the
	// cursor, it went back in history — restored from an older image, or
	// lost an unsynced tail to a crash — and re-issues LSNs this copy
	// holds other records under.
	if lsn, err := strconv.ParseUint(resp.Header.Get("X-Kcore-LSN"), 10, 64); err == nil {
		if lsn < cursor {
			return false, fmt.Errorf("%w: leader at LSN %d, behind the cursor %d", errDiverged, lsn, cursor)
		}
		f.observeLeaderLSN(lsn)
	}

	fr := wal.NewFrameReader(resp.Body)
	var read int64
	next := cursor + 1
	for {
		rec, ferr := fr.ReadFrame()
		f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.StreamBytes += fr.BytesRead() - read })
		read = fr.BytesRead()
		if ferr != nil {
			return progressed, ferr
		}
		if st.diverged.Load() {
			return progressed, errDiverged
		}
		watchdog.Reset(f.opts.HeartbeatTimeout)
		f.observeLeaderLSN(rec.LSN)
		if rec.Heartbeat {
			if rec.LSN+1 < next {
				return progressed, fmt.Errorf("%w: leader heartbeat at LSN %d, behind the cursor %d", errDiverged, rec.LSN, next-1)
			}
			f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.Heartbeats++ })
			continue
		}
		if rec.LSN < next {
			// At or below the cursor: already applied before a reconnect —
			// skipped, so every record is applied exactly once.
			f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.Duplicates++ })
			continue
		}
		if rec.LSN > next {
			return progressed, fmt.Errorf("replica: LSN gap on stream: got %d, want %d", rec.LSN, next)
		}
		t0 := time.Now()
		// The callback runs on the apply session's writer goroutine right
		// after the epoch covering the record is published: the record's
		// LSN is now visible to readers, so the cursor advances here and
		// nowhere else — unless this record, or one before it, did not
		// apply in full, in which case it never advances on this state
		// again.
		err := engine.ApplyRecord(st.ConcurrentSession, rec, func(ep *serve.Epoch, err error) {
			if err != nil || st.diverged.Load() {
				st.diverged.Store(true)
				return
			}
			lag := time.Since(t0).Nanoseconds()
			f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.AppliedLSN, s.LagNs = rec.LSN, lag })
			if f.opts.OnApplied != nil {
				f.opts.OnApplied(rec.LSN, ep)
			}
		})
		if err != nil {
			return progressed, fmt.Errorf("%w: enqueue: %v", errDiverged, err)
		}
		f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.Records++ })
		next = rec.LSN + 1
		progressed = true
	}
}

// observeLeaderLSN ratchets the highest leader LSN seen on the stream.
func (f *Follower) observeLeaderLSN(lsn uint64) {
	f.ctr.Update(func(s *stats.ReplicaSnapshot) { s.LeaderLSN = max(s.LeaderLSN, lsn) })
}

// Snapshot returns the current epoch (engine.Engine).
func (f *Follower) Snapshot() *serve.Epoch { return f.state.Load().Snapshot() }

// Enqueue refuses local writes: a follower's state is exactly the
// leader's change stream.
func (f *Follower) Enqueue(ups ...serve.Update) error {
	return fmt.Errorf("replica: refusing local write: %w", engine.ErrReadOnly)
}

// Apply refuses local writes (engine.ErrReadOnly).
func (f *Follower) Apply(ups ...serve.Update) error { return f.Enqueue(ups...) }

// Sync blocks until every stream record received so far is published.
func (f *Follower) Sync() error { return f.state.Load().Sync() }

// Report relabels the apply session's report as a follower's and adds
// the replication block — cursor, observed leader LSN, lag, stream
// health — to it.
func (f *Follower) Report() serve.Report {
	r := f.state.Load().Report()
	rs := f.ctr.Snapshot()
	if rs.LeaderLSN > rs.AppliedLSN {
		rs.LagEpochs = rs.LeaderLSN - rs.AppliedLSN
	}
	r.Backend, r.Replica = "follower", &rs
	return r
}

// Close stops the stream loop and the apply session. Snapshots already
// taken stay readable.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.cancel()
		f.wg.Wait()
		if st := f.state.Load(); st != nil {
			// A failed rebootstrap can leave the session already closed;
			// Live.Close does not count that as an error.
			f.closeErr = st.Close()
		}
		if f.ownDir {
			if err := os.RemoveAll(f.dir); err != nil && f.closeErr == nil {
				f.closeErr = err
			}
		}
	})
	return f.closeErr
}
