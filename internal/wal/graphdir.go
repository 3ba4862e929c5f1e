package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// ErrNoData reports a graph directory with neither a checkpoint nor WAL
// records: nothing was ever made durable.
var ErrNoData = errors.New("wal: no durable state in graph directory")

// ErrNoCheckpoint reports WAL records with no checkpoint that
// validates: the log tail alone cannot reconstruct the graph.
var ErrNoCheckpoint = errors.New("wal: no usable checkpoint")

// Options configures a GraphDir.
type Options struct {
	// FS routes all WAL/checkpoint file operations; nil means the real
	// filesystem. Tests install a faultfs.Injector here.
	FS faultfs.FS
	// Policy is the sync policy for log appends.
	Policy SyncPolicy
	// SegmentBytes is the log segment roll threshold; 0 picks
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Counters receives WAL instrumentation; nil allocates a private set.
	Counters *stats.Counters[stats.WalSnapshot]
	// IO is charged, at block granularity, for checkpoint table writes
	// and for whatever a streamed checkpoint Source reads; nil allocates a
	// default-block-size counter.
	IO *stats.IOCounter
}

// GraphDir owns one graph's durability directory: its log, its
// checkpoints, and the retention rule tying them together (keep the
// newest two checkpoints; drop log segments entirely at or below the
// older retained checkpoint's LSN).
type GraphDir struct {
	fs       faultfs.FS
	dir      string
	policy   SyncPolicy
	segBytes int64
	ctr      *stats.Counters[stats.WalSnapshot]
	io       *stats.IOCounter
	log      *Log
	nextSeq  uint64
}

func walRoot(dir string) string { return filepath.Join(dir, "wal") }

// logDir is where the writer's log lives. Data directories written by
// the retired sharded engine hold sibling s1, s2, … directories too;
// logDirs finds them all.
func logDir(dir string) string { return filepath.Join(walRoot(dir), "s0") }

// logDirs lists every s* log directory on disk under dir (none when the
// WAL tree does not exist).
func logDirs(fsys faultfs.FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(walRoot(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "s") {
			dirs = append(dirs, filepath.Join(walRoot(dir), e.Name()))
		}
	}
	return dirs, nil
}

// LiveBase is the storage path prefix of the graph a durable graph
// directory serves, under live/.
func LiveBase(dir string) string { return filepath.Join(dir, "live", "graph") }

// Open creates (or reopens) the durability directory. Existing
// checkpoints set the next sequence number; the log always starts a
// fresh segment (recovery resets it explicitly).
func Open(dir string, opts *Options) (*GraphDir, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	if o.Counters == nil {
		o.Counters = new(stats.Counters[stats.WalSnapshot])
	}
	if o.IO == nil {
		o.IO = stats.NewIOCounter(0)
	}
	g := &GraphDir{
		fs:       o.FS,
		dir:      dir,
		policy:   o.Policy,
		segBytes: o.SegmentBytes,
		ctr:      o.Counters,
		io:       o.IO,
		nextSeq:  1,
	}
	if err := g.fs.MkdirAll(walRoot(dir), 0o755); err != nil {
		return nil, err
	}
	cks, err := listCheckpoints(g.fs, dir)
	if err != nil {
		return nil, err
	}
	if len(cks) > 0 {
		g.nextSeq = cks[0].seq + 1
	}
	g.log, err = newLog(g.fs, logDir(dir), g.segBytes, g.policy, g.ctr, 0)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// IO exposes the counter checkpoints charge their block writes to; the
// caller charges a checkpointed view's reads there too
// (dyngraph.View.ChargeTo).
func (g *GraphDir) IO() *stats.IOCounter { return g.io }

// Log returns the append log.
func (g *GraphDir) Log() *Log { return g.log }

// Sync fsyncs the log; the graph-level commit point calls this before
// acknowledging a Sync.
func (g *GraphDir) Sync() error { return g.log.Sync() }

// Checkpoint writes a new committed checkpoint of src at lsn, then
// applies retention: the newest two checkpoints survive and every log
// segment whose records all sit at or below the older survivor's LSN is
// removed. It returns the path prefix of the committed tables.
func (g *GraphDir) Checkpoint(lsn uint64, src graph.Source, cores []uint32) (tables string, err error) {
	seq := g.nextSeq
	if err := writeCheckpoint(g.fs, g.dir, seq, lsn, src, cores, g.io); err != nil {
		return "", err
	}
	g.nextSeq = seq + 1
	g.ctr.Update(func(s *stats.WalSnapshot) { s.Checkpoints++ })
	tables = CheckpointBase(filepath.Join(g.dir, "ckpt", ckptDirName(seq)))
	cks, err := listCheckpoints(g.fs, g.dir)
	if err != nil {
		return tables, err
	}
	for _, ck := range cks {
		if ck.seq+1 < seq { // keep seq and seq-1 (when present)
			if err := g.fs.RemoveAll(ck.path); err != nil {
				return tables, err
			}
		}
	}
	cutoff := lsn
	for _, ck := range cks {
		if ck.seq < seq {
			// The oldest retained checkpoint bounds what replay could
			// ever need.
			if man, err := readManifest(g.fs, ck.path); err == nil && man.LSN < cutoff {
				cutoff = man.LSN
			}
		}
	}
	dirs, err := logDirs(g.fs, g.dir)
	if err != nil {
		return tables, err
	}
	for _, d := range dirs {
		if err := truncateBelow(g.fs, d, cutoff); err != nil {
			return tables, err
		}
	}
	return tables, nil
}

// TrimLogs ends the log at lsn, where recovery brought the graph once a
// committed checkpoint at lsn covers it, so that the next append follows
// lsn. Records past lsn go: a torn tail, records past a gap. Those at or
// below it stay, since a later recovery that falls back to the older
// retained checkpoint replays them — live/ shares the newest checkpoint's
// files, so damage to the served tables is damage to it — and retention
// drops them as checkpoints commit. A log that already ends cleanly, in s0
// alone, is left as it is; anything else, the per-shard directories of the
// retired sharded writer included, is rewritten as one s0 log of the kept
// records (a crash midway loses only records the checkpoint at lsn holds).
func (g *GraphDir) TrimLogs(lsn uint64) error {
	recs, torn, _, _, err := scanLogs(g.fs, g.dir)
	if err != nil {
		return err
	}
	dirs, err := logDirs(g.fs, g.dir)
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	keep := recs
	for len(keep) > 0 && keep[len(keep)-1].LSN > lsn {
		keep = keep[:len(keep)-1]
	}
	g.log.Close() //nolint:errcheck // it has appended nothing yet
	if torn || len(keep) < len(recs) || len(dirs) != 1 || dirs[0] != logDir(g.dir) {
		if err := g.fs.RemoveAll(walRoot(g.dir)); err != nil {
			return err
		}
		// Counted by a private set: /stats counts appends of new records.
		l, err := newLog(g.fs, logDir(g.dir), g.segBytes, g.policy, new(stats.Counters[stats.WalSnapshot]), 0)
		if err != nil {
			return err
		}
		for _, rec := range keep {
			if err := l.Append(AppendRecord(nil, rec.LSN, rec.Deletes, rec.Inserts), rec.LSN); err != nil {
				l.Close()
				return err
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	l, err := newLog(g.fs, logDir(g.dir), g.segBytes, g.policy, g.ctr, lsn)
	if err != nil {
		return err
	}
	g.log = l
	return nil
}

// Close fsyncs (policy permitting) and closes the log.
func (g *GraphDir) Close() error { return g.log.Close() }

// Recovered is one checkpoint Scan offers a bring-up: the checkpoint,
// the consecutive replay tail beyond it, and damage classification.
type Recovered struct {
	// Manifest describes the checkpoint and Path is its directory.
	Manifest Manifest
	Path     string
	// Cores is the checkpoint's core-number array when one was stored
	// and it verified; nil otherwise (kcored stores one with every
	// checkpoint, but older data dirs hold checkpoints without).
	Cores []uint32
	// Fallback reports that a newer checkpoint was refused — its manifest
	// or cores did not validate, or the bring-up refused its tables.
	Fallback bool
	// Records is the replay tail: records with consecutive LSNs starting
	// at Manifest.LSN+1, in order.
	Records []Record
	// Gap reports that readable records beyond the consecutive prefix
	// were discarded. A gap can only cover unacknowledged writes (an
	// acked Sync fsyncs every log), so this is data loss within the
	// durability contract, not damage.
	Gap bool
	// Torn reports a torn final record in at least one log — the normal
	// signature of a crash mid-append.
	Torn bool
	// Damaged reports corruption past repair: mid-log damage, duplicate
	// LSNs, or a cores file that failed its checksum. The caller should
	// serve the recovered state read-only.
	Damaged bool
	// Reason explains Damaged and Fallback for logs and stats, naming
	// each refused checkpoint by its sequence number.
	Reason string
}

// Scan offers each checkpoint whose manifest validates
// (ValidateCheckpointDir), newest first, with the replay tail past it, to
// bringUp, and returns the first one it accepts (nil: the first offered).
// It reads no table and never modifies the directory. With none accepted
// it returns ErrNoData (nothing durable at all) or ErrNoCheckpoint (log
// records whose base image is gone).
func Scan(fsys faultfs.FS, dir string, bringUp func(*Recovered) error) (*Recovered, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	cks, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, err
	}
	recs, torn, damaged, logReason, err := scanLogs(fsys, dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	var refused []string
	for i, ck := range cks {
		man, cores, err := ValidateCheckpointDir(fsys, ck.path)
		if err != nil && !errors.Is(err, ErrCores) {
			refused = append(refused, fmt.Sprintf("checkpoint %d: %v", ck.seq, err))
			continue
		}
		res := &Recovered{Manifest: man, Path: ck.path, Cores: cores, Fallback: i > 0, Torn: torn, Damaged: damaged || err != nil}
		reasons := slices.Clone(refused)
		if damaged {
			reasons = append(reasons, logReason)
		}
		if err != nil {
			reasons = append(reasons, err.Error())
		}
		res.Reason = strings.Join(reasons, "; ")
		// The consecutive prefix past the checkpoint.
		next := man.LSN + 1
		for _, rec := range recs {
			if rec.LSN < next {
				continue
			}
			if rec.LSN > next {
				res.Gap = true
				break
			}
			res.Records = append(res.Records, rec)
			next++
		}
		if bringUp != nil {
			if err := bringUp(res); err != nil {
				refused = append(refused, fmt.Sprintf("checkpoint %d: %v", ck.seq, err))
				continue
			}
		}
		return res, nil
	}
	if len(cks) == 0 && len(recs) == 0 && !torn {
		return nil, ErrNoData
	}
	if len(refused) > 0 {
		return nil, fmt.Errorf("%w (%s)", ErrNoCheckpoint, strings.Join(refused, "; "))
	}
	return nil, ErrNoCheckpoint
}

// scanLogs reads every log directory under dir and classifies damage.
func scanLogs(fsys faultfs.FS, dir string) (recs []Record, torn, damaged bool, reason string, err error) {
	dirs, derr := logDirs(fsys, dir)
	if derr != nil {
		return nil, false, false, "", derr
	}
	seen := make(map[uint64]bool)
	var reasons []string
	for _, sdir := range dirs {
		lrecs, ltorn, ldmg, lerr := readLogDir(fsys, sdir)
		if lerr != nil {
			return nil, false, false, "", lerr
		}
		if ltorn {
			torn = true
		}
		if ldmg {
			damaged = true
			reasons = append(reasons, fmt.Sprintf("log %s: mid-log corruption", filepath.Base(sdir)))
		}
		for _, r := range lrecs {
			if seen[r.LSN] {
				damaged = true
				reasons = append(reasons, fmt.Sprintf("duplicate lsn %d", r.LSN))
				continue
			}
			seen[r.LSN] = true
			recs = append(recs, r)
		}
	}
	return recs, torn, damaged, strings.Join(reasons, "; "), nil
}

// CopyLive makes dir/live hold the graph at path prefix srcBase, linked
// (a checkpoint's tables, never written again) or copied (a base the
// operator may still rewrite in place), and returns its path prefix.
func CopyLive(dir, srcBase string, link bool) (string, error) {
	live := LiveBase(dir)
	if err := os.RemoveAll(filepath.Dir(live)); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(live), 0o755); err != nil {
		return "", err
	}
	return live, storage.CopyGraph(live, srcBase, link)
}
