package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// SyncPolicy controls when log appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on every acked Sync and on a
	// background timer: bounded data loss on crash, near-zero overhead
	// on the enqueue path.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every appended record before it is acknowledged.
	SyncAlways
	// SyncNever leaves flushing entirely to the OS: fastest, loses
	// everything since the last checkpoint on crash.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// String renders the policy as its flag value.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

const (
	segMagic = "KWALSEG1"
	// segHeaderSize frames each segment: magic + u32 version + u32 log id
	// (always 0: one writer, one log; never read back).
	segHeaderSize = 16
	segVersion    = 1
	// DefaultSegmentBytes is the roll threshold when the caller does not
	// pick one.
	DefaultSegmentBytes = 16 << 20
	segSuffix           = ".seg"
)

// segName names a segment by the LSN of its first record, so retention
// decisions need only the directory listing.
func segName(firstLSN uint64) string { return fmt.Sprintf("%016x%s", firstLSN, segSuffix) }

// Log is the writer's segmented append log. Appends arrive
// from a single writer goroutine, but Sync (the commit path) can be
// called from any goroutine, so file state is guarded by a small mutex.
type Log struct {
	fs       faultfs.FS
	dir      string
	segBytes int64
	policy   SyncPolicy
	ctr      *stats.WalCounters

	mu     sync.Mutex
	f      faultfs.File
	size   int64
	synced bool // no appends since the last fsync
}

// newLog creates (or reuses) the log directory and returns a log
// that will start a fresh segment at the first append.
func newLog(fs faultfs.FS, dir string, segBytes int64, policy SyncPolicy, ctr *stats.WalCounters) (*Log, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Log{fs: fs, dir: dir, segBytes: segBytes, policy: policy, ctr: ctr, synced: true}, nil
}

// Append writes one framed record (encoded by AppendRecord) whose first
// LSN is firstLSN, rolling to a new segment when the current one is
// full. Under SyncAlways the record is fsynced before Append returns.
func (l *Log) Append(frame []byte, firstLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.size+int64(len(frame)) > l.segBytes {
		if err := l.rollLocked(firstLSN); err != nil {
			return err
		}
	}
	n, err := l.f.Write(frame)
	l.size += int64(n)
	if err != nil {
		return err
	}
	l.synced = false
	l.ctr.NoteAppend(int64(len(frame)))
	if l.policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// rollLocked closes the current segment (fsyncing it first unless the
// policy is SyncNever — a closed segment can never be fsynced later)
// and opens a fresh one named after the incoming record's LSN.
func (l *Log) rollLocked(firstLSN uint64) error {
	if l.f != nil {
		if l.policy != SyncNever {
			if err := l.syncLocked(); err != nil {
				l.f.Close()
				l.f = nil
				return err
			}
		}
		if err := l.f.Close(); err != nil {
			l.f = nil
			return err
		}
		l.f = nil
	}
	f, err := l.fs.Create(filepath.Join(l.dir, segName(firstLSN)))
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = segHeaderSize
	l.synced = false
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil || l.synced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced = true
	l.ctr.NoteFsync()
	return nil
}

// Sync fsyncs the open segment (a no-op under SyncNever, and when
// nothing was appended since the last fsync). The graph-level commit
// point calls this on every acked Sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy == SyncNever {
		return nil
	}
	return l.syncLocked()
}

// Close fsyncs (policy permitting) and closes the open segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var firstErr error
	if l.policy != SyncNever {
		firstErr = l.syncLocked()
	}
	if err := l.f.Close(); firstErr == nil {
		firstErr = err
	}
	l.f = nil
	return firstErr
}

// segEntry locates one segment on disk during recovery or truncation.
type segEntry struct {
	firstLSN uint64
	path     string
}

// listSegments returns a log directory's segments sorted by first
// LSN. Unparseable names are ignored.
func listSegments(fs faultfs.FS, dir string) ([]segEntry, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segEntry
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segEntry{firstLSN: lsn, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// readLogDir reads every record from one log directory's segments in LSN
// order, each segment through a FrameReader. A bad segment header or a
// bad frame (a heartbeat included: they are never logged) in the final
// segment is a torn tail: reading stops there, the tail is logically
// truncated, and torn reports true. The same anywhere else means mid-log
// damage: the records read so far are returned with damaged set, and the
// caller decides whether the graph can still come up.
func readLogDir(fs faultfs.FS, dir string) (recs []Record, torn, damaged bool, err error) {
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, false, false, err
	}
	for i, seg := range segs {
		data, err := fs.ReadFile(seg.path)
		if err != nil {
			return nil, false, false, err
		}
		bad := len(data) < segHeaderSize || string(data[:8]) != segMagic ||
			binary.LittleEndian.Uint32(data[8:]) != segVersion
		if !bad {
			fr := NewFrameReader(bytes.NewReader(data[segHeaderSize:]))
			for {
				rec, rerr := fr.ReadFrame()
				if rerr == io.EOF {
					break
				}
				if rerr != nil || rec.Heartbeat {
					bad = true
					break
				}
				recs = append(recs, rec)
			}
		}
		if bad {
			last := i == len(segs)-1
			return recs, last, !last, nil
		}
	}
	return recs, false, false, nil
}

// truncateBelow removes whole segments that contain only records with
// LSN <= keep. A segment is removable when the next segment's first LSN
// is <= keep+1 (everything in it is at or below keep).
func truncateBelow(fs faultfs.FS, dir string, keep uint64) error {
	segs, err := listSegments(fs, dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstLSN <= keep+1 {
			if err := fs.Remove(segs[i].path); err != nil {
				return err
			}
		}
	}
	return nil
}
