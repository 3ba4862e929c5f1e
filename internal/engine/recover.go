package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/wal"
)

// configName is the per-graph serving-configuration file inside a
// durable graph directory: recovery reopens the graph on the frames it
// was created with (normalize's spelling of them), and kcored keeps it
// only while its base is the one it was created from (BaseChanged).
const configName = "CONFIG"

// writeGraphConfig records c and the identity of the tables at base, the
// graph's first open (baseIdentity), when they can be read.
func writeGraphConfig(o *DurabilityOptions, dir string, c BackendConfig, base string) error {
	config := fmt.Sprintf("backend=%s\ncache_blocks=%d\n", c.Backend, c.CacheBlocks)
	if id, err := baseIdentity(base); err == nil {
		config += "base=" + id + "\n"
	}
	return storage.WriteFile(o.FS, filepath.Join(dir, configName), []byte(config))
}

// baseIdentity is what tells the tables at base from other tables: their
// header's node and arc counts, table sizes and the tables' CRC32Cs. It
// reads the header only, so file times, copies and links do not change it.
func baseIdentity(base string) (string, error) {
	m, err := storage.ReadMeta(base)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d/%d/%d/%d/%08x/%08x", m.N, m.Arcs, m.NtBytes, m.EtBytes, m.NtCRC, m.EtCRC), nil
}

// readGraphConfig parses the configuration file into the frames,
// defaulting to the default frames when it is missing or damaged (it is
// serving configuration, not durable state — the graph's data is intact
// either way), and the base identity it records, empty if none. Unknown
// keys and backend names are skipped: a graph whose CONFIG names neither
// backend comes back on the default frames.
func readGraphConfig(dir string) (c BackendConfig, base string) {
	c = BackendConfig{Backend: BackendMem}
	data, err := os.ReadFile(filepath.Join(dir, configName))
	if err != nil {
		return c, ""
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
		case "base":
			base = val
		}
	}
	return c, base
}

// BaseChanged reports whether the tables at path prefix base are not the
// ones the durable graph name was created from: their identity
// (baseIdentity) differs from the one its CONFIG recorded. It reports
// false when CONFIG records none (data dirs of older trees) or base
// cannot be read, so the recovered graph is kept. The registry must have
// DurabilityOptions.
func (r *Registry) BaseChanged(name, base string) bool {
	_, want := readGraphConfig(filepath.Join(r.dur.Dir, name))
	got, err := baseIdentity(base)
	return want != "" && err == nil && got != want
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

// createDurable is the data-dir variant of a first open: whatever is
// under <dataDir>/<name>/ is replaced by a durable graph started from
// the tables at base. c must already be normalized, oo resolved from it.
func (r *Registry) createDurable(name, base string, c BackendConfig, oo kcore.OpenOptions) (*entry, error) {
	dir := filepath.Join(r.dur.Dir, name)
	// A fresh Open owns the name: whatever an earlier failed creation
	// (or an unrecoverable leftover the operator chose to replace) left
	// under it is discarded.
	err := r.dur.FS.RemoveAll(dir)
	if err == nil {
		err = r.dur.FS.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = writeGraphConfig(r.dur, dir, c, base)
	}
	var d *durable
	if err == nil {
		d, err = r.startDurable(name, dir, base, oo, nil)
	}
	if err != nil {
		if d != nil {
			d.Close() //nolint:errcheck // creation error wins
		}
		return nil, fmt.Errorf("engine: open durable %q: %w", name, err)
	}
	return &entry{base: base, eng: d, dir: dir}, nil
}

// startDurable is the one way a durable graph comes into service, first
// open and recovery alike: copy (first open) or link (recovery) the
// tables at src into live/ and bring them up behind the durability shell,
// apply the WAL tail, commit a checkpoint of the result (not adopted: live/
// stays on the files recovery chose), end the log at it, start the
// background loops. A first open (sc == nil, src the
// operator's base) is a recovery with no expected cores, an empty tail
// and no logs yet; a recovery passes a checkpoint wal.Scan offers, src
// its tables.
//
// The graph serves, and adopts its checkpoints into, live/ from the first
// open on: the operator's files are only ever read, so a base whose
// identity differs from the one CONFIG recorded means "the operator
// replaced the base" (BaseChanged), and committed checkpoints are never
// written.
//
// An error next to a nil shell means nothing came up and nothing stays
// open. An error next to a shell means the graph is in service on what
// was recovered but durability could not be re-armed: recovery marks it
// degraded, a first open closes it.
func (r *Registry) startDurable(name, dir, src string, oo kcore.OpenOptions, sc *wal.Recovered) (*durable, error) {
	liveBase, err := wal.CopyLive(dir, src, sc != nil)
	if err != nil {
		return nil, err
	}
	d := newDurable(name, *r.dur)
	if d.fill = oo.BufferArcs; d.fill <= 0 {
		d.fill = dyngraph.DefaultBufferArcs
	}
	oo.BufferArcs = 2 * d.fill // the hard bound: the fill folds back by checkpoint
	d.gd, err = wal.Open(dir, &wal.Options{
		FS:           r.dur.FS,
		Policy:       r.dur.Policy,
		SegmentBytes: r.dur.SegmentBytes,
		Counters:     &d.ctr,
		IO:           stats.NewIOCounter(r.opts.Open.BlockSize),
	})
	if err != nil {
		return nil, err
	}
	so := r.opts.Serve
	so.OnApply = d.onApply
	var want []uint32
	if sc != nil {
		want = sc.Cores
	}
	// The checkpoint stored the core numbers of its adjacency; what was
	// recovered must decompose to exactly them, or something is silently
	// inconsistent (ErrCoreMismatch).
	d.inner, err = BringUp(liveBase, oo, so, want)
	if d.inner == nil {
		d.gd.Close() //nolint:errcheck // bring-up error wins
		return nil, err
	}
	// step runs the next stage unless an earlier one failed.
	step := func(what string, f func() error) {
		if err == nil {
			if err = f(); err != nil {
				err = fmt.Errorf("%s: %w", what, err)
			}
		}
	}
	if sc != nil {
		// The shell's LSN is the published state's: the checkpoint's, plus
		// each tail record replay applies. Damage skips the replay, and
		// then the LSN stays the checkpoint's, the newest valid one.
		d.lsn, d.ckptLSN = sc.Manifest.LSN, int64(sc.Manifest.LSN)
		if sc.Damaged {
			err = errors.New(sc.Reason)
		}
		step("replay", func() error { return d.replay(sc.Records) })
	}
	step("checkpoint", func() error { return d.checkpoint(false) })
	if sc != nil {
		// The log goes on after the checkpoint, without what a crash left
		// past it, and keeps what the older checkpoint would replay.
		step("trimming logs", func() error { return d.gd.TrimLogs(d.CurrentLSN()) })
	}
	if err == nil {
		d.startLoops()
	}
	return d, err
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
// each back: newest checkpoint whose bring-up returns a graph (falling
// back past a bad manifest or tables the bring-up refuses), WAL tail
// replayed through the normal update path, fresh checkpoint, then
// serving. A graph damaged past repair comes up degraded
// read-only; a graph with nothing reconstructable is reported with Err
// and not registered. Recover never panics on bad input — corrupt state
// is classified, reported, and isolated per graph; a name whose state is
// there but did not come back is not opened over (ErrUnrecovered).
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
		gr := r.recoverGraph(e.Name())
		if gr.Err != nil && !errors.Is(gr.Err, wal.ErrNoData) {
			r.mu.Lock()
			r.unrecovered[gr.Name] = fmt.Errorf("%w: %s (%v); refusing to replace it — move the directory aside to start over from the base", ErrUnrecovered, filepath.Join(r.dur.Dir, gr.Name), gr.Err)
			r.mu.Unlock()
		}
		rep.Graphs = append(rep.Graphs, gr)
	}
	rep.Elapsed = time.Since(t0)
	return rep, nil
}

// recoverGraph brings one graph directory back into the registry. A
// checkpoint it refuses leaves no log open and no live/ links behind.
func (r *Registry) recoverGraph(name string) (gr GraphRecovery) {
	t0 := time.Now()
	gr.Name = name
	_, gr.Err = r.install(name, func() (*entry, error) {
		dir := filepath.Join(r.dur.Dir, name)
		c, _ := readGraphConfig(dir)
		oo, err := c.OpenOptions(r.opts.Open)
		if err != nil {
			return nil, err
		}
		var d *durable
		var derr error
		sc, err := wal.Scan(r.dur.FS, dir, func(sc *wal.Recovered) error {
			if d, derr = r.startDurable(name, dir, wal.CheckpointBase(sc.Path), oo, sc); d == nil {
				os.RemoveAll(filepath.Dir(wal.LiveBase(dir))) //nolint:errcheck // the bring-up error wins
				return derr
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		gr.Fallback, gr.Reason = sc.Fallback, sc.Reason
		if derr != nil {
			reason := derr.Error()
			d.markDegraded(reason)
			gr.Degraded = true
			if gr.Reason == "" {
				gr.Reason = reason
			} else if !strings.Contains(gr.Reason, reason) {
				gr.Reason += "; " + reason
			}
		}
		gr.Replayed = d.ctr.Snapshot().Replayed
		d.ctr.Update(func(s *stats.WalSnapshot) { s.RecoveryNs = time.Since(t0).Nanoseconds() })
		return &entry{base: wal.LiveBase(dir), eng: d, dir: dir}, nil
	})
	gr.Elapsed = time.Since(t0)
	return gr
}
