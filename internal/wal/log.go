package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// Log is the writer's segmented append log, and the change stream a
// leader serves its followers (Tail). Appends arrive from a single writer
// goroutine, but Sync (the commit path) and tails can run on any
// goroutine, so file state is guarded by a small mutex.
type Log struct {
	fs       faultfs.FS
	dir      string
	segBytes int64
	policy   SyncPolicy
	ctr      *stats.Counters[stats.WalSnapshot]
	base     uint64 // the LSN the log's first record follows

	mu     sync.Mutex
	f      faultfs.File
	size   int64
	synced bool // no appends since the last fsync
	// seg is the segment appends go to (its first LSN; 0 before the first)
	// and end how many of its bytes the last successful Append finished:
	// a tail reads it no further, so it never sees a partial frame or a
	// record whose append failed.
	seg  uint64
	end  int64
	err  error         // the first failed Append: nothing is appended behind it
	wake chan struct{} // closed and replaced by every successful Append; closed and nil once closed
}

// newLog creates (or reuses) the log directory and returns a log that
// will start a fresh segment at the first append, whose records follow
// LSN base.
func newLog(fs faultfs.FS, dir string, segBytes int64, policy SyncPolicy, ctr *stats.Counters[stats.WalSnapshot], base uint64) (*Log, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Log{fs: fs, dir: dir, segBytes: segBytes, policy: policy, ctr: ctr, base: base,
		synced: true, wake: make(chan struct{})}, nil
}

// Append writes one framed record (encoded by AppendRecord) whose first
// LSN is firstLSN, rolling to a new segment when the current one is
// full. Under SyncAlways the record is fsynced before Append returns. A
// failed Append may leave part of its frame in the segment, so the log
// refuses every Append after it.
func (l *Log) Append(frame []byte, firstLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.err = l.appendLocked(frame, firstLSN); l.err != nil {
		return l.err
	}
	l.end = l.size
	if l.wake != nil {
		close(l.wake)
		l.wake = make(chan struct{})
	}
	return nil
}

func (l *Log) appendLocked(frame []byte, firstLSN uint64) error {
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
	l.ctr.Update(func(s *stats.WalSnapshot) { s.Appends++; s.Bytes += int64(len(frame)) })
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
	// Listable from here on: tails read it no further than end.
	l.seg, l.end = firstLSN, 0
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
	l.ctr.Update(func(s *stats.WalSnapshot) { s.Fsyncs++ })
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

// Close fsyncs (policy permitting) and closes the open segment; tails
// drain what was appended and then end.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
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

// badHeader reports whether b does not start with a segment header.
func badHeader(b []byte) bool {
	return len(b) < segHeaderSize || string(b[:8]) != segMagic ||
		binary.LittleEndian.Uint32(b[8:]) != segVersion
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
		bad := badHeader(data)
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

// TrimmedError reports a cursor older than the log's retention: the
// segment holding the record after it went with the checkpoint that
// covered it.
type TrimmedError struct {
	// Oldest is the oldest cursor the log can still serve from.
	Oldest uint64
}

func (e *TrimmedError) Error() string {
	return fmt.Sprintf("wal: change feed trimmed (oldest servable cursor %d)", e.Oldest)
}

// Tail is a read cursor over a log's records: a leader serves each
// follower connection from one. It is just a position — the segment it
// reads (by first LSN; 0 until it has one), the offset of its next frame
// there, and the LSN of the next record to return — and holds no file,
// index or record between calls. A Tail is not safe for concurrent use.
type Tail struct {
	l    *Log
	seg  uint64
	off  int64
	next uint64
}

// Tail opens a cursor whose Next returns the records with LSN > from. A
// from older than retention keeps is a *TrimmedError naming the oldest
// cursor there is.
func (l *Log) Tail(from uint64) (*Tail, error) {
	t := &Tail{l: l, next: from + 1}
	if err := t.advance(); err != nil {
		return nil, err
	}
	return t, nil
}

// Next returns up to max records past the cursor, in LSN order, and moves
// the cursor past them. Segments older than the one the log appends to
// are read to their end, that one only up to the bytes the last
// successful Append finished. With nothing new Next returns no records
// and a channel the next Append or Close closes; once the log is closed
// and read to its end, io.EOF. A cursor whose segment retention removed
// gets a *TrimmedError; damage or an LSN gap is an error.
func (t *Tail) Next(max int) ([]Record, <-chan struct{}, error) {
	var (
		out  []Record
		wake chan struct{}
	)
	for len(out) < max {
		// The snapshot follows the listing the cursor's segment came from,
		// and a roll names its segment the moment it creates it: a listed
		// segment other than seg is one appends are done with.
		t.l.mu.Lock()
		seg, end := t.l.seg, t.l.end
		wake = t.l.wake
		t.l.mu.Unlock()
		if t.seg != 0 {
			sealed := t.seg != seg // never written again: read to its end
			limit := end
			if sealed {
				limit = math.MaxInt64
			}
			var err error
			if out, err = t.read(limit, out, max); err != nil {
				return out, nil, err
			}
			if len(out) == max || !sealed {
				break
			}
		}
		// Read to its end, removed by retention, or none yet: the next one.
		from := t.seg
		if err := t.advance(); err != nil {
			return out, nil, err
		}
		if t.seg == from {
			break
		}
	}
	switch {
	case len(out) > 0:
		return out, nil, nil
	case wake == nil:
		return nil, nil, io.EOF // closed
	}
	return nil, wake, nil
}

// advance moves the cursor past its segment, found by name alone — each
// is named by its first LSN: to the newest later one that starts at most
// at the next record, the one holding it, or else to the first later one.
// The oldest cursor retention keeps is the one before the first
// segment's first record, or the log's base while it has no segment; a
// cursor older than that is a *TrimmedError.
func (t *Tail) advance() error {
	segs, err := listSegments(t.l.fs, t.l.dir)
	if err != nil {
		return err
	}
	oldest := t.l.base
	if len(segs) > 0 {
		oldest = segs[0].firstLSN - 1
	}
	if oldest >= t.next {
		return &TrimmedError{Oldest: oldest}
	}
	from := t.seg
	for _, s := range segs {
		if s.firstLSN > from && (s.firstLSN <= t.next || t.seg == from) {
			t.seg, t.off = s.firstLSN, segHeaderSize
		}
	}
	return nil
}

// read decodes the cursor's segment from its offset up to byte limit into
// out, until out holds max records. Records below the cursor are passed
// over; one past the next LSN is a gap — a roll names a segment after the
// record that opens it, so that holds across segments too.
func (t *Tail) read(limit int64, out []Record, max int) ([]Record, error) {
	if limit <= t.off {
		return out, nil
	}
	path := filepath.Join(t.l.dir, segName(t.seg))
	f, err := t.l.fs.Open(path)
	if os.IsNotExist(err) {
		return out, nil // removed by retention (never the one appends go to)
	}
	if err != nil {
		return out, err
	}
	defer f.Close()
	if t.off == segHeaderSize {
		var hdr [segHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil || badHeader(hdr[:]) {
			return out, fmt.Errorf("wal: %s: bad segment header", path)
		}
	}
	fr := NewFrameReader(io.NewSectionReader(f, t.off, limit-t.off))
	for len(out) < max {
		start := fr.BytesRead()
		rec, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err == nil && rec.Heartbeat {
			err = errors.New("heartbeat frame in a log")
		}
		if err != nil {
			return out, fmt.Errorf("wal: %s at offset %d: %w", path, t.off, err)
		}
		if rec.LSN > t.next {
			return out, fmt.Errorf("wal: %s: LSN gap: record %d follows %d", path, rec.LSN, t.next-1)
		}
		t.off += fr.BytesRead() - start
		if rec.LSN == t.next {
			out = append(out, rec)
			t.next++
		}
	}
	return out, nil
}
