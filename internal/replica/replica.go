// Package replica implements the follower side of replication: a
// read-only engine that bootstraps from a leader's checkpoint download,
// tails its change stream (GET /g/{name}/changes — the CRC-framed WAL
// wire format), and applies each record as one isolated batch through
// the normal serving path, so every published follower epoch is exactly
// one leader commit-point state. Reads are epoch-consistent and
// bounded-stale; local writes are refused with engine.ErrReadOnly.
//
// Cursor protocol: the follower's cursor is the LSN of the newest record
// whose epoch is published. On reconnect it resumes from the cursor
// (records at or below it are duplicates and skipped — exactly-once
// apply), and when the leader answers 410 Gone (the cursor fell out of
// the retained feed window) it falls back to a fresh checkpoint
// bootstrap. A mid-stream fault — torn frame, CRC failure, LSN gap,
// heartbeat silence — closes the connection and re-enters the same
// loop, so a follower never serves a torn or out-of-order state.
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
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/engine"
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
	// Open tunes the local graph handle.
	Open kcore.OpenOptions
	// Client issues the HTTP requests; nil uses a private client with no
	// global timeout (the change stream is long-lived — liveness comes
	// from HeartbeatTimeout).
	Client *http.Client
	// BootstrapRetries bounds the initial bootstrap attempts in New;
	// 0 selects 5. Later catch-ups retry forever under the run loop's
	// reconnect backoff.
	BootstrapRetries int
	// ReconnectMin/ReconnectMax bound the exponential reconnect backoff;
	// 0 selects 50ms / 2s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// HeartbeatTimeout declares the stream dead when no frame (batch or
	// heartbeat) arrives for this long; 0 selects 5s. The leader
	// heartbeats idle streams every 500ms.
	HeartbeatTimeout time.Duration
	// Counters receives replication metrics; nil allocates a private set.
	Counters *stats.ReplicaCounters
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
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.Counters == nil {
		o.Counters = new(stats.ReplicaCounters)
	}
	return o
}

var (
	// errTrimmed reports a cursor the leader can no longer serve from its
	// feed window (410 Gone) — fall back to checkpoint catch-up.
	errTrimmed = errors.New("replica: cursor behind the leader's feed window")
	// errDiverged reports a stream record the local state refused to
	// apply — impossible while follower state matches the leader, so the
	// local copy is rebuilt from a fresh checkpoint.
	errDiverged = errors.New("replica: local state diverged from the stream")
)

// state is the follower's current serving backend: the graph opened from
// one downloaded checkpoint plus the apply session over it. Rebootstrap
// swaps in a whole new state; epochs from the old one stay readable.
type state struct {
	g    *kcore.Graph
	sess *serve.ConcurrentSession
	dir  string // checkpoint subdir owning the graph files
}

// pendingRec tracks one enqueued stream record until the epoch covering
// it is published.
type pendingRec struct {
	lsn uint64
	t0  time.Time
}

// Follower is a read-only replication engine (engine.Engine). Build one
// with New; register it under a Registry with Registry.Register.
type Follower struct {
	opts   Options
	ctr    *stats.ReplicaCounters
	dir    string
	ownDir bool

	state   atomic.Pointer[state]
	bootSeq int // numbers checkpoint subdirs; touched only by the run loop

	// pend is the FIFO of enqueued-but-unpublished stream records; the
	// stream goroutine pushes, the apply session's writer goroutine pops
	// (OnApplyInternal) and publishes (OnPublish). cur carries the popped
	// entry between those two strictly-paired callbacks.
	pendMu sync.Mutex
	pend   []pendingRec
	cur    pendingRec
	curSet bool

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
	f := &Follower{opts: o, ctr: o.Counters, dir: o.Dir}
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

// onApplyInternal pops the oldest pending record: the flush being
// reported is exactly one stream record (internal batches flush in
// isolation), applied in enqueue order.
func (f *Follower) onApplyInternal(deletes, inserts []kcore.Edge) {
	f.pendMu.Lock()
	if len(f.pend) > 0 {
		f.cur, f.curSet = f.pend[0], true
		f.pend = f.pend[1:]
	}
	f.pendMu.Unlock()
}

// onPublish runs immediately after onApplyInternal for the epoch
// covering the record (the serve ordering guarantee): the record's LSN
// is now visible to readers, so the cursor advances here and nowhere
// else.
func (f *Follower) onPublish(ep *serve.Epoch) {
	f.pendMu.Lock()
	rec, ok := f.cur, f.curSet
	f.curSet = false
	f.pendMu.Unlock()
	if !ok {
		return // epoch 0 of a fresh session, no record behind it
	}
	f.ctr.SetAppliedLSN(rec.lsn)
	f.ctr.NoteLag(time.Since(rec.t0).Nanoseconds())
	if f.opts.OnApplied != nil {
		f.opts.OnApplied(rec.lsn, ep)
	}
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
	man, cores, err := wal.ValidateCheckpointDir(subdir)
	if err != nil {
		os.RemoveAll(subdir) //nolint:errcheck // validation error wins
		return fmt.Errorf("replica: downloaded checkpoint: %w", err)
	}

	// Quiesce the old session before touching the cursor or the pending
	// queue: once Close returns, no writer goroutine can race them.
	old := f.state.Load()
	if old != nil {
		old.sess.Close() //nolint:errcheck // replaced either way
	}
	f.pendMu.Lock()
	f.pend, f.curSet = nil, false
	f.pendMu.Unlock()

	g, err := kcore.Open(wal.CheckpointGraphBase(subdir), &f.opts.Open)
	if err != nil {
		os.RemoveAll(subdir) //nolint:errcheck // open error wins
		return err
	}
	so := f.opts.Serve
	so.Counters = nil // each session gets private counters
	so.OnApplyInternal = f.onApplyInternal
	so.OnPublish = f.onPublish
	sess, err := serve.New(g, &so)
	if err != nil {
		g.Close()            //nolint:errcheck // serve error wins
		os.RemoveAll(subdir) //nolint:errcheck
		return err
	}
	if cores != nil && !slices.Equal(sess.Snapshot().Cores(), cores) {
		sess.Close()         //nolint:errcheck // divergence error wins
		g.Close()            //nolint:errcheck
		os.RemoveAll(subdir) //nolint:errcheck
		return fmt.Errorf("replica: checkpoint core numbers disagree with its adjacency")
	}
	f.ctr.SetAppliedLSN(man.LSN)
	f.ctr.NoteBootstrap(n)
	f.state.Store(&state{g: g, sess: sess, dir: subdir})
	if old != nil {
		old.g.Close()         //nolint:errcheck // replaced state
		os.RemoveAll(old.dir) //nolint:errcheck
	}
	return nil
}

// extractCheckpoint unpacks a checkpoint tar into dir, admitting only
// the canonical bundle file names, and reports the bytes written.
func extractCheckpoint(r io.Reader, dir string) (int64, error) {
	allowed := make(map[string]bool)
	for _, name := range wal.CheckpointBundleNames() {
		allowed[name] = true
	}
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
		if !allowed[hdr.Name] {
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
			// The feed window has moved past the cursor (or the state is
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
		f.ctr.NoteReconnect()
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(delay):
		}
		if delay *= 2; delay > f.opts.ReconnectMax {
			delay = f.opts.ReconnectMax
		}
	}
}

// streamOnce runs one stream connection to exhaustion. It reports
// whether the attempt made progress (applied records) and why it ended.
func (f *Follower) streamOnce(ctx context.Context) (progressed bool, err error) {
	st := f.state.Load()
	// Barrier first: records enqueued by a previous connection must be
	// published before the cursor is read, or the resume point would be
	// stale and re-fetch them. A record that is still pending after the
	// barrier was refused by the local graph — divergence.
	if err := st.sess.Sync(); err != nil {
		return false, fmt.Errorf("%w: apply session: %v", errDiverged, err)
	}
	f.pendMu.Lock()
	stuck := len(f.pend) > 0
	f.pendMu.Unlock()
	if stuck {
		return false, errDiverged
	}
	cursor := f.ctr.AppliedLSN()

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

	fr := wal.NewFrameReader(resp.Body)
	var read int64
	next := cursor + 1
	for {
		frame, ferr := fr.ReadFrame()
		f.ctr.AddStreamBytes(fr.BytesRead() - read)
		read = fr.BytesRead()
		if ferr != nil {
			return progressed, ferr
		}
		watchdog.Reset(f.opts.HeartbeatTimeout)
		f.ctr.ObserveLeaderLSN(frame.LSN)
		if frame.Heartbeat {
			f.ctr.NoteHeartbeat()
			continue
		}
		if frame.LSN < next {
			// At or below the cursor: already applied before a reconnect —
			// skipped, so every record is applied exactly once.
			f.ctr.NoteDuplicate()
			continue
		}
		if frame.LSN > next {
			return progressed, fmt.Errorf("replica: LSN gap on stream: got %d, want %d", frame.LSN, next)
		}
		ups := make([]serve.Update, 0, len(frame.Deletes)+len(frame.Inserts))
		for _, e := range frame.Deletes {
			ups = append(ups, serve.Update{Op: serve.OpDelete, U: e.U, V: e.V})
		}
		for _, e := range frame.Inserts {
			ups = append(ups, serve.Update{Op: serve.OpInsert, U: e.U, V: e.V})
		}
		f.pendMu.Lock()
		f.pend = append(f.pend, pendingRec{lsn: frame.LSN, t0: time.Now()})
		f.pendMu.Unlock()
		if err := st.sess.EnqueueInternal(ups); err != nil {
			return progressed, fmt.Errorf("%w: enqueue: %v", errDiverged, err)
		}
		f.ctr.NoteRecord()
		next = frame.LSN + 1
		progressed = true
	}
}

// Snapshot returns the current epoch (engine.Engine).
func (f *Follower) Snapshot() *serve.Epoch { return f.state.Load().sess.Snapshot() }

// Enqueue refuses local writes: a follower's state is exactly the
// leader's change stream.
func (f *Follower) Enqueue(ups ...serve.Update) error {
	return fmt.Errorf("replica: refusing local write: %w", engine.ErrReadOnly)
}

// Apply refuses local writes (engine.ErrReadOnly).
func (f *Follower) Apply(ups ...serve.Update) error {
	return fmt.Errorf("replica: refusing local write: %w", engine.ErrReadOnly)
}

// Sync blocks until every stream record received so far is published.
func (f *Follower) Sync() error { return f.state.Load().sess.Sync() }

// Counters exposes the apply session's serving counters.
func (f *Follower) Counters() *stats.ServeCounters { return f.state.Load().sess.Counters() }

// Stats snapshots the apply session's serving counters.
func (f *Follower) Stats() stats.ServeSnapshot { return f.state.Load().sess.Stats() }

// IOStats reports block I/O through the local graph.
func (f *Follower) IOStats() kcore.IOStats { return f.state.Load().sess.IOStats() }

// ReplicaStats snapshots the replication counters: cursor, observed
// leader LSN, lag, stream health.
func (f *Follower) ReplicaStats() stats.ReplicaSnapshot { return f.ctr.Snapshot() }

// Report relabels the apply session's report as a follower's and adds
// the replication block to it.
func (f *Follower) Report() serve.Report {
	r := f.state.Load().sess.Report()
	rs := f.ReplicaStats()
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
			err := st.sess.Close()
			if errors.Is(err, serve.ErrClosed) {
				// A failed rebootstrap can leave the session already closed;
				// that is not a Close error.
				err = nil
			}
			if cerr := st.g.Close(); err == nil {
				err = cerr
			}
			f.closeErr = err
		}
		if f.ownDir {
			if err := os.RemoveAll(f.dir); err != nil && f.closeErr == nil {
				f.closeErr = err
			}
		}
	})
	return f.closeErr
}
