package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/wal"
)

// configName is the per-graph serving-configuration file inside a
// durable graph directory: recovery reopens the graph behind the backend
// it was created with.
const configName = "CONFIG"

func writeGraphConfig(o *DurabilityOptions, dir string, c BackendConfig) error {
	f, err := o.FS.Create(filepath.Join(dir, configName))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "backend=%s\ncache_blocks=%d\n", c.Backend, c.CacheBlocks); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readGraphConfig parses the configuration file, defaulting to the mem
// backend when it is missing or damaged (it is serving configuration,
// not durable state — the graph's data is intact either way). Unknown
// keys and backend names are skipped, which is how a file written by a
// sharded kcored (backend=sharded, shards=N, partitioner=) comes back
// as one mem writer, its per-shard logs merged by LSN (wal.Scan).
func readGraphConfig(dir string) BackendConfig {
	var c BackendConfig
	data, err := os.ReadFile(filepath.Join(dir, configName))
	if err != nil {
		return c
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok {
			continue
		}
		switch key {
		case "backend":
			if val == BackendMem || val == BackendDisk {
				c.Backend = val
			}
		case "cache_blocks":
			if n, err := strconv.Atoi(val); err == nil && n >= 0 {
				c.CacheBlocks = n
			}
		}
	}
	return c
}

// ensureDataDir creates the data directory and takes the process-level
// flock on first use.
func (r *Registry) ensureDataDir() error {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	if r.lockFile != nil {
		return nil
	}
	if err := os.MkdirAll(r.dur.Dir, 0o755); err != nil {
		return err
	}
	f, err := lockDataDir(filepath.Join(r.dur.Dir, "LOCK"))
	if err != nil {
		return err
	}
	r.lockFile = f
	return nil
}

func (r *Registry) releaseDataDir() {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	if r.lockFile != nil {
		r.lockFile.Close()
		r.lockFile = nil
	}
}

// openDurable is the data-dir variant of OpenBackend: the graph is
// opened from base, wrapped in the durability layer under
// <dataDir>/<name>/, and an initial checkpoint is committed before the
// engine is published. c must already be normalized.
func (r *Registry) openDurable(name, base string, c BackendConfig) (Engine, error) {
	if err := r.ensureDataDir(); err != nil {
		return nil, err
	}
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	dir := filepath.Join(r.dur.Dir, name)
	d, err := r.buildDurable(name, dir, base, c)
	if err != nil {
		r.commit(name, nil)
		return nil, fmt.Errorf("engine: open durable %q: %w", name, err)
	}
	e := &entry{name: name, base: base, eng: d, dir: dir}
	if !r.commit(name, e) {
		e.shutdown() //nolint:errcheck // ErrClosed wins
		return nil, ErrClosed
	}
	return d, nil
}

func (r *Registry) buildDurable(name, dir, base string, c BackendConfig) (*durable, error) {
	// A fresh Open owns the name: whatever an earlier failed creation
	// (or an unrecoverable leftover the operator chose to replace) left
	// under it is discarded.
	if err := r.dur.FS.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := r.dur.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A durable graph serves, and compacts into, its own copy of the
	// tables under live/ from its first open on, exactly as after a
	// recovery: the operator's files at base are only ever read, so
	// their modification times keep meaning "the operator refreshed the
	// base" (BaseNewerThanCheckpoint).
	liveBase, err := wal.CopyLive(dir, base)
	if err != nil {
		return nil, err
	}
	g, err := r.openGraph(liveBase, c)
	if err != nil {
		return nil, err
	}
	d, err := r.assembleDurable(name, dir, g, false)
	if err != nil {
		return nil, err
	}
	err = writeGraphConfig(r.dur, dir, c)
	if err == nil {
		err = d.checkpoint()
	}
	if err != nil {
		d.Close() //nolint:errcheck // creation error wins
		return nil, err
	}
	d.startLoops()
	return d, nil
}

// assembleDurable builds the durable shell around a serving session for
// g, whichever backend g was opened on: log opened, hook chained. When
// replaying is set the shell starts in replay mode (records are not
// re-logged) and background loops are not started; the recovery path
// finishes that. The shell owns g; on error it has been closed.
func (r *Registry) assembleDurable(name, dir string, g *kcore.Graph, replaying bool) (*durable, error) {
	d := newDurable(name, *r.dur)
	if replaying {
		d.replaying.Store(true)
	}
	gd, err := wal.Open(dir, &wal.Options{
		FS:           r.dur.FS,
		Policy:       r.dur.Policy,
		SegmentBytes: r.dur.SegmentBytes,
		Counters:     d.ctr,
		IO:           stats.NewIOCounter(r.opts.Open.BlockSize),
	})
	if err != nil {
		g.Close() //nolint:errcheck // wal error wins
		return nil, err
	}
	d.gd = gd
	so := r.opts.Serve
	so.Counters = new(stats.ServeCounters)
	prev := so.OnApply
	so.OnApply = func(deletes, inserts []kcore.Edge) {
		if prev != nil {
			prev(deletes, inserts)
		}
		d.onApply(deletes, inserts)
	}
	eng, err := serve.New(g, &so)
	if err != nil {
		gd.Close() //nolint:errcheck // engine error wins
		g.Close()  //nolint:errcheck
		return nil, err
	}
	d.inner, d.g = eng, g
	return d, nil
}

// GraphRecovery reports what recovery did for one graph directory.
type GraphRecovery struct {
	Name     string        `json:"name"`
	Replayed int64         `json:"replayed_records"`
	Degraded bool          `json:"degraded,omitempty"`
	Fallback bool          `json:"checkpoint_fallback,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	Err      error         `json:"-"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// CheckpointTime is the modification time of the chosen checkpoint's
	// manifest — when the recovered state was last made durable. Zero
	// when recovery failed before choosing a checkpoint. kcored compares
	// it against -graph/-load base files to decide whether a recovered
	// graph is staler than its base (see BaseNewerThanCheckpoint).
	CheckpointTime time.Time `json:"checkpoint_time,omitzero"`
}

// BaseNewerThanCheckpoint reports whether the on-disk base graph at
// path prefix base was modified after the recovered checkpoint was
// written — the signal that the operator refreshed the base file and a
// -load/-graph should re-decompose it instead of keeping the recovered
// state. Unknown times (missing files, failed recovery) report false,
// preserving the recovered-name-wins default.
func BaseNewerThanCheckpoint(base string, gr GraphRecovery) bool {
	if gr.CheckpointTime.IsZero() {
		return false
	}
	newest := time.Time{}
	for _, ext := range []string{".meta", ".nt", ".et"} {
		fi, err := os.Stat(base + ext)
		if err != nil {
			return false
		}
		if fi.ModTime().After(newest) {
			newest = fi.ModTime()
		}
	}
	return newest.After(gr.CheckpointTime)
}

// RecoveryReport aggregates a Recover pass.
type RecoveryReport struct {
	Graphs  []GraphRecovery `json:"graphs"`
	Elapsed time.Duration   `json:"elapsed_ns"`
}

// Replayed sums replayed records across graphs.
func (rep *RecoveryReport) Replayed() int64 {
	var t int64
	for _, g := range rep.Graphs {
		t += g.Replayed
	}
	return t
}

// Summary renders the one-line startup log.
func (rep *RecoveryReport) Summary() string {
	degraded, failed := 0, 0
	for _, g := range rep.Graphs {
		if g.Degraded {
			degraded++
		}
		if g.Err != nil {
			failed++
		}
	}
	s := fmt.Sprintf("recovered %d graphs, %d replayed records in %v",
		len(rep.Graphs)-failed, rep.Replayed(), rep.Elapsed.Round(time.Millisecond))
	if degraded > 0 {
		s += fmt.Sprintf(" (%d degraded read-only)", degraded)
	}
	if failed > 0 {
		s += fmt.Sprintf(" (%d unrecoverable)", failed)
	}
	return s
}

// Recover discovers graph directories under the data dir and brings
// each back: newest valid checkpoint (falling back on CRC failure),
// WAL tail replayed through the normal update path, fresh checkpoint,
// then serving. A graph damaged past repair comes up degraded
// read-only; a graph with nothing reconstructable is reported with Err
// and not registered. Recover never panics on bad input — corrupt state
// is classified, reported, and isolated per graph.
func (r *Registry) Recover() (*RecoveryReport, error) {
	if r.dur == nil {
		return nil, fmt.Errorf("engine: Recover needs a registry with DurabilityOptions")
	}
	if err := r.ensureDataDir(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ents, err := os.ReadDir(r.dur.Dir)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{}
	for _, e := range ents {
		if !e.IsDir() || !validName(e.Name()) {
			continue
		}
		rep.Graphs = append(rep.Graphs, r.recoverGraph(e.Name()))
	}
	rep.Elapsed = time.Since(t0)
	return rep, nil
}

// recoverGraph brings one graph directory back into the registry.
func (r *Registry) recoverGraph(name string) (gr GraphRecovery) {
	t0 := time.Now()
	gr.Name = name
	defer func() { gr.Elapsed = time.Since(t0) }()
	if err := r.reserve(name); err != nil {
		gr.Err = err
		return gr
	}
	dir := filepath.Join(r.dur.Dir, name)
	fail := func(err error) GraphRecovery {
		r.commit(name, nil)
		gr.Err = err
		return gr
	}
	sc, err := wal.Scan(r.dur.FS, dir)
	if err != nil {
		return fail(err)
	}
	if fi, serr := r.dur.FS.Stat(wal.ManifestPath(sc.Path)); serr == nil {
		gr.CheckpointTime = fi.ModTime()
	}
	c, err := readGraphConfig(dir).normalize()
	if err != nil {
		return fail(err)
	}
	// Data dirs written before the disk backend read the tables in place
	// hold a directory of partition files; nothing reads it any more.
	if err := os.RemoveAll(filepath.Join(dir, "parts")); err != nil {
		return fail(err)
	}
	liveBase, err := wal.CopyLive(dir, wal.CheckpointBase(sc.Path))
	if err != nil {
		return fail(err)
	}
	g, err := r.openGraph(liveBase, c)
	if err != nil {
		return fail(err)
	}
	d, err := r.assembleDurable(name, dir, g, true)
	if err != nil {
		return fail(err)
	}
	gr.Fallback = sc.Fallback
	gr.Reason = sc.Reason
	degradedReason := ""
	if sc.Damaged {
		degradedReason = sc.Reason
	}
	if degradedReason == "" && sc.Cores != nil {
		// The checkpoint stored the core numbers of its adjacency; what
		// was recovered must decompose to exactly them (core numbers are
		// unique per graph), or something is silently inconsistent.
		if !slices.Equal(d.inner.Snapshot().Cores(), sc.Cores) {
			degradedReason = "checkpoint core numbers disagree with recovered adjacency"
		}
	}
	if degradedReason == "" {
		if err := d.replay(sc.Records); err != nil {
			degradedReason = "replay: " + err.Error()
		} else {
			gr.Replayed = d.ctr.Replayed()
		}
	}
	d.mu.Lock()
	d.lsn = sc.MaxLSN()
	d.mu.Unlock()
	d.replaying.Store(false)
	// The change feed restarts at the recovered watermark: replayed
	// records are covered by the post-recovery checkpoint, so a follower
	// with an older cursor must catch up from that checkpoint anyway.
	d.feed.Reset(sc.MaxLSN())
	if degradedReason == "" {
		// Re-arm durability: a fresh checkpoint covering the replay,
		// then fresh logs (old segments, torn tails included, are dead
		// weight once the checkpoint commits).
		if err := d.checkpoint(); err != nil {
			degradedReason = "post-recovery checkpoint: " + err.Error()
		} else if err := d.gd.ResetLogs(); err != nil {
			degradedReason = "resetting logs: " + err.Error()
		} else {
			d.startLoops()
		}
	}
	if degradedReason != "" {
		d.markDegraded(degradedReason)
		gr.Degraded = true
		if gr.Reason == "" {
			gr.Reason = degradedReason
		} else if !strings.Contains(gr.Reason, degradedReason) {
			gr.Reason += "; " + degradedReason
		}
	}
	d.ctr.SetRecoveryNs(time.Since(t0).Nanoseconds())
	e := &entry{name: name, base: liveBase, eng: d, dir: dir}
	if !r.commit(name, e) {
		d.Close() //nolint:errcheck // ErrClosed wins
		gr.Err = ErrClosed
	}
	return gr
}
