package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

func edges(pairs ...uint32) []graph.Edge {
	es := make([]graph.Edge, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		es = append(es, graph.Edge{U: pairs[i], V: pairs[i+1]})
	}
	return es
}

// decodeAll reads frames from data until the stream ends or a frame is
// bad, returning what decoded before that and the terminating error (nil
// for a clean end).
func decodeAll(data []byte) ([]Record, error) {
	fr := NewFrameReader(bytes.NewReader(data))
	var recs []Record
	for {
		rec, err := fr.ReadFrame()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Inserts: edges(0, 1, 2, 3)},
		{LSN: 2, Deletes: edges(0, 1)},
		{LSN: 3},
		{LSN: 4, Deletes: edges(5, 6), Inserts: edges(7, 8, 9, 10, 11, 12)},
		{LSN: 9, Heartbeat: true},
	}
	var buf []byte
	for _, r := range recs {
		buf = append(buf, reencode(r)...)
	}
	got, err := decodeAll(buf)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("decoded %d records (%v), want %d", len(got), err, len(recs))
	}
	for i, want := range recs {
		if got[i].LSN != want.LSN || got[i].Heartbeat != want.Heartbeat ||
			!sameEdges(got[i].Deletes, want.Deletes) || !sameEdges(got[i].Inserts, want.Inserts) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
	// Any single flipped bit in the stream is caught by the frame CRC (or
	// rejected as a torn/short frame), and what decoded before it is a
	// prefix of what was written.
	for bit := 0; bit < len(buf)*8; bit += 37 {
		bad := append([]byte(nil), buf...)
		bad[bit/8] ^= 1 << (bit % 8)
		got, err := decodeAll(bad)
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		for i := range got {
			if got[i].LSN != recs[i].LSN {
				t.Fatalf("bit flip at %d: record %d decoded with LSN %d, want %d", bit, i, got[i].LSN, recs[i].LSN)
			}
		}
	}
	// A length field past the bound is refused before anything is
	// allocated for it.
	huge := binary.LittleEndian.AppendUint32(nil, maxPayload+1)
	if _, err := decodeAll(append(huge, 0, 0, 0, 0)); err == nil {
		t.Fatal("a frame longer than maxPayload was accepted")
	}
}

// TestParentWrittenSegmentRoundTrips: the log segment in the engine
// package's parent-datadir fixture was written by the AppendRecord of the
// commit before the codecs were merged. The one decoder reads its seven
// whole records, classifies the eighth as a torn tail, and re-encoding
// what it read reproduces the file byte for byte.
func TestParentWrittenSegmentRoundTrips(t *testing.T) {
	dir := filepath.Join("..", "engine", "testdata", "parent-datadir", "g", "wal", "s0")
	recs, torn, damaged, err := readLogDir(faultfs.OS, dir)
	if err != nil || !torn || damaged || len(recs) != 7 {
		t.Fatalf("read %d records, torn=%v damaged=%v err=%v; want 7 and a torn tail", len(recs), torn, damaged, err)
	}
	segs, err := listSegments(faultfs.OS, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
		enc = append(enc, reencode(r)...)
	}
	if body := data[segHeaderSize:]; !bytes.HasPrefix(body, enc) || len(body) == len(enc) {
		t.Fatalf("re-encoded records are not the segment's %d-byte prefix before its torn tail", len(enc))
	}
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendN writes n single-insert records with LSNs start..start+n-1.
func appendN(t *testing.T, l *Log, start uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn := start + uint64(i)
		frame := AppendRecord(nil, lsn, nil, edges(uint32(lsn), uint32(lsn)+1))
		if err := l.Append(frame, lsn); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogAppendReadAndTornTail(t *testing.T) {
	dir := t.TempDir()
	ctr := new(stats.Counters[stats.WalSnapshot])
	l, err := newLog(faultfs.OS, dir, 0, SyncAlways, ctr, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, damaged, err := readLogDir(faultfs.OS, dir)
	if err != nil || torn || damaged {
		t.Fatalf("clean read: err=%v torn=%v damaged=%v", err, torn, damaged)
	}
	if len(recs) != 5 || recs[0].LSN != 1 || recs[4].LSN != 5 {
		t.Fatalf("read %d records (first %d last %d), want LSNs 1..5",
			len(recs), recs[0].LSN, recs[len(recs)-1].LSN)
	}
	if s := ctr.Snapshot(); s.Appends != 5 || s.Fsyncs == 0 {
		t.Fatalf("counters = %+v, want 5 appends and some fsyncs", s)
	}

	// Chop a few bytes off the final segment: a torn tail drops only the
	// last record and is not damage.
	segs, err := listSegments(faultfs.OS, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	fi, _ := os.Stat(segs[0].path)
	if err := os.Truncate(segs[0].path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, torn, damaged, err = readLogDir(faultfs.OS, dir)
	if err != nil || !torn || damaged {
		t.Fatalf("torn read: err=%v torn=%v damaged=%v", err, torn, damaged)
	}
	if len(recs) != 4 {
		t.Fatalf("torn read kept %d records, want 4", len(recs))
	}
}

func TestLogRollAndMidLogDamage(t *testing.T) {
	dir := t.TempDir()
	// A tiny roll threshold forces one record per segment.
	l, err := newLog(faultfs.OS, dir, 32, SyncInterval, new(stats.Counters[stats.WalSnapshot]), 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4 (roll threshold not honored)", len(segs))
	}

	// Corrupt a byte inside the SECOND segment: that is mid-log damage,
	// not a torn tail, and reading stops at the corruption.
	data, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, damaged, err := readLogDir(faultfs.OS, dir)
	if err != nil || torn || !damaged {
		t.Fatalf("damaged read: err=%v torn=%v damaged=%v", err, torn, damaged)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("damaged read kept %v, want just LSN 1", recs)
	}
}

// TestReadLogDirDamageProperty: whatever single truncation or bit flip
// hits a log directory, readLogDir never panics and never returns a
// record from past the damage; damage in the final segment is reported
// torn, damage in any earlier segment damaged. (A segment cut exactly at
// a frame boundary is indistinguishable from a shorter log here; Scan's
// LSN gap rule is what catches that.)
func TestReadLogDirDamageProperty(t *testing.T) {
	seed := testutil.Seed(t, 77)
	rnd := rand.New(rand.NewSource(seed))
	const perSeg, nSegs = 3, 3
	recLen := len(AppendRecord(nil, 1, nil, edges(1, 2)))
	master := t.TempDir()
	// Exactly perSeg records fit a segment.
	l, err := newLog(faultfs.OS, master, int64(segHeaderSize+perSeg*recLen), SyncNever, new(stats.Counters[stats.WalSnapshot]), 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, perSeg*nSegs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS, master)
	if err != nil || len(segs) != nSegs {
		t.Fatalf("fixture has %d segments (%v), want %d", len(segs), err, nSegs)
	}
	for trial := 0; trial < 300; trial++ {
		dir := t.TempDir()
		si := rnd.Intn(nSegs)
		var pos int // first damaged byte within segment si
		var cut bool
		for i, seg := range segs {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if i == si {
				pos = rnd.Intn(len(data))
				if cut = rnd.Intn(2) == 0; cut {
					data = data[:pos]
				} else {
					data[pos] ^= 1 << rnd.Intn(8)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg.path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recs, torn, damaged, err := readLogDir(faultfs.OS, dir)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Records wholly before the damaged byte survive; a flip inside the
		// segment header loses the whole segment. (Byte 12..15, the unread
		// log id, is the one place a flip is not damage.)
		intact := 0
		if pos >= segHeaderSize {
			intact = (pos - segHeaderSize) / recLen
		}
		clean := cut && pos >= segHeaderSize && (pos-segHeaderSize)%recLen == 0
		harmless := !cut && pos >= 12 && pos < segHeaderSize
		want := si*perSeg + intact
		if clean || harmless {
			// Not detectable at this layer: everything readable is returned.
			want = perSeg * nSegs
			if clean {
				want -= perSeg - intact
			}
			if torn || damaged {
				t.Fatalf("trial %d (seg %d pos %d cut %v): undetectable change classified torn=%v damaged=%v", trial, si, pos, cut, torn, damaged)
			}
		} else if last := si == nSegs-1; torn != last || damaged == last {
			t.Fatalf("trial %d (seg %d pos %d cut %v): torn=%v damaged=%v", trial, si, pos, cut, torn, damaged)
		}
		if len(recs) != want {
			t.Fatalf("trial %d (seg %d pos %d cut %v): %d records, want %d", trial, si, pos, cut, len(recs), want)
		}
		next := uint64(1)
		for _, r := range recs {
			if r.LSN < next || r.Heartbeat {
				t.Fatalf("trial %d: records out of order or not batches: %+v", trial, recs)
			}
			next = r.LSN + 1
		}
	}
}

func TestTruncateBelowKeepsCoveringSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := newLog(faultfs.OS, dir, 32, SyncInterval, new(stats.Counters[stats.WalSnapshot]), 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 6) // one record per segment
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := truncateBelow(faultfs.OS, dir, 3); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readLogDir(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 4 {
		t.Fatalf("after truncateBelow(3): %d records starting at %d, want 3 starting at 4",
			len(recs), recs[0].LSN)
	}
}

// sliceSource is the tests' checkpoint graph.Source: resident lists in
// id order, sorted unless a test says otherwise.
type sliceSource [][]uint32

// sourceOf builds a sliceSource over n nodes from explicit edges.
func sourceOf(n uint32, es []graph.Edge) sliceSource {
	s := make(sliceSource, n)
	s.insert(es)
	return s
}

func (s sliceSource) insert(es []graph.Edge) {
	for _, e := range es {
		s[e.U] = append(s[e.U], e.V)
		s[e.V] = append(s[e.V], e.U)
		slices.Sort(s[e.U])
		slices.Sort(s[e.V])
	}
}

func (s sliceSource) NumNodes() uint32 { return uint32(len(s)) }

func (s sliceSource) NumArcs() int64 {
	var arcs int64
	for _, l := range s {
		arcs += int64(len(l))
	}
	return arcs
}

func (s sliceSource) Positions() []uint32 { return nil }

func (s sliceSource) ScanDegrees(fn func(v, deg uint32) error) error {
	for v, l := range s {
		if err := fn(uint32(v), uint32(len(l))); err != nil {
			return err
		}
	}
	return nil
}

func (s sliceSource) ScanDynamic(pmin uint32, pmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	for v := pmin; v < s.NumNodes() && v <= pmaxFn(); v++ {
		if want == nil || want(v) {
			if err := fn(v, s[v]); err != nil {
				return err
			}
		}
	}
	return nil
}

// lyingSource reports one arc more than it streams — what a torn capture
// of a streamed source would look like.
type lyingSource struct{ sliceSource }

func (s lyingSource) NumArcs() int64 { return s.sliceSource.NumArcs() + 1 }

// TestCheckpointRejectsInconsistentSource: a source whose scan fails, or
// whose streamed arcs disagree with what it reports, commits nothing —
// the previous checkpoint stays the newest one.
func TestCheckpointRejectsInconsistentSource(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	m := sourceOf(6, edges(0, 1, 1, 2, 2, 3))
	if _, err := gd.Checkpoint(1, m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Checkpoint(2, lyingSource{m}, nil); err == nil {
		t.Fatal("a source streaming fewer arcs than it reports was committed")
	}
	unsorted := sliceSource{{3, 1}, {0}, {}, {0}, {}, {}} // list [3 1] violates the scan contract
	if _, err := gd.Checkpoint(3, unsorted, nil); err == nil {
		t.Fatal("a source streaming an unsorted list was committed")
	}
	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 1 || sc.Fallback {
		t.Fatalf("newest valid checkpoint is at LSN %d (fallback %v), want the untouched one at 1", sc.Manifest.LSN, sc.Fallback)
	}
}

func TestCheckpointScanReplayTail(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sourceOf(6, edges(0, 1, 1, 2, 2, 3))
	cores := []uint32{1, 1, 1, 1, 0, 0}
	if _, err := gd.Checkpoint(0, m, cores); err != nil {
		t.Fatal(err)
	}
	// Three records past the checkpoint.
	for lsn := uint64(1); lsn <= 3; lsn++ {
		frame := AppendRecord(nil, lsn, nil, edges(uint32(lsn), uint32(lsn)+2))
		if err := gd.Log().Append(frame, lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := gd.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}

	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 0 || sc.Fallback || sc.Damaged || sc.Gap || sc.Torn {
		t.Fatalf("scan = %+v, want clean checkpoint at LSN 0", sc)
	}
	if len(sc.Records) != 3 || lastLSN(sc) != 3 {
		t.Fatalf("replay tail = %d records, last LSN %d; want 3 and 3", len(sc.Records), lastLSN(sc))
	}
	if !reflect.DeepEqual(sc.Cores, cores) {
		t.Fatalf("cores = %v, want %v", sc.Cores, cores)
	}
}

// TestScanMergesLegacyShardLogs: a directory written by the retired
// sharded engine holds one log per shard writer, with the graph-level
// LSNs interleaved across them. Scan merges them into one consecutive
// tail, and once recovery's checkpoint covers it the trim rewrites what
// is left of them as one s0 log, so a second recovery replays nothing
// stale.
func TestScanMergesLegacyShardLogs(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sourceOf(16, nil)
	if _, err := gd.Checkpoint(0, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}
	logs := make([]*Log, 3)
	for i := range logs {
		// One record per segment, so retention has something to drop.
		l, err := newLog(faultfs.OS, filepath.Join(walRoot(dir), fmt.Sprintf("s%d", i)), 32, SyncAlways, new(stats.Counters[stats.WalSnapshot]), 0)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	for lsn := uint64(1); lsn <= 7; lsn++ {
		ins := edges(uint32(lsn), uint32(lsn)+1)
		if err := logs[(lsn*2)%3].Append(AppendRecord(nil, lsn, nil, ins), lsn); err != nil {
			t.Fatal(err)
		}
		m.insert(ins)
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Gap || sc.Damaged || sc.Torn || len(sc.Records) != 7 {
		t.Fatalf("merged scan = %d records gap=%v damaged=%v torn=%v, want 7 clean", len(sc.Records), sc.Gap, sc.Damaged, sc.Torn)
	}
	for i, rec := range sc.Records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want the consecutive tail 1..7", i, rec.LSN)
		}
	}

	// What recovery does next: reopen, checkpoint the replayed state,
	// trim the logs. A second checkpoint makes LSN 7 the older retained
	// one, so retention truncates below it — in every log directory.
	gd, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := gd.Checkpoint(lastLSN(sc), m, nil); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := listSegments(faultfs.OS, filepath.Join(walRoot(dir), "s1")); err != nil || len(segs) != 1 {
		t.Fatalf("s1 holds %d segments after retention (%v), want only its newest", len(segs), err)
	}
	if err := gd.TrimLogs(lastLSN(sc)); err != nil {
		t.Fatal(err)
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}
	if dirs, err := logDirs(faultfs.OS, dir); err != nil || len(dirs) != 1 || dirs[0] != logDir(dir) {
		t.Fatalf("log directories after the trim = %v (%v), want only s0", dirs, err)
	}
	// What retention left of the three logs is kept, merged, in s0.
	recs, torn, damaged, err := readLogDir(faultfs.OS, logDir(dir))
	if err != nil || torn || damaged || len(recs) == 0 || recs[len(recs)-1].LSN != 7 {
		t.Fatalf("s0 after the trim: %d records (torn %v, damaged %v, %v), want the kept ones up to 7", len(recs), torn, damaged, err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+1 {
			t.Fatalf("s0 after the trim holds LSN %d after %d", recs[i].LSN, recs[i-1].LSN)
		}
	}
	sc, err = Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 7 || len(sc.Records) != 0 {
		t.Fatalf("second scan = checkpoint LSN %d + %d records, want 7 + 0", sc.Manifest.LSN, len(sc.Records))
	}
}

// TestTrimLogsKeepsCoveredRecords: recovery's trim ends the log at the
// recovered LSN and keeps every record at or below it, which a fallback
// to the older checkpoint replays. A log that ends cleanly is left as it
// is. One with a torn tail and records past the trim point is rewritten
// without them, so the next append neither follows torn bytes (mid-log
// damage to the next scan) nor repeats an LSN.
func TestTrimLogsKeepsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{SegmentBytes: 100} // two records per segment
	gd, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 6; lsn++ {
		if err := gd.Log().Append(AppendRecord(nil, lsn, nil, edges(uint32(lsn), uint32(lsn)+1)), lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}
	// A file no rewrite would keep.
	marker := filepath.Join(logDir(dir), "marker")
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	trim := func(lsn uint64, next []graph.Edge) {
		t.Helper()
		gd, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := gd.TrimLogs(lsn); err != nil {
			t.Fatal(err)
		}
		if next != nil {
			if err := gd.Log().Append(AppendRecord(nil, lsn+1, nil, next), lsn+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := gd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, last uint64) []Record {
		t.Helper()
		recs, torn, damaged, err := readLogDir(faultfs.OS, logDir(dir))
		if err != nil || torn || damaged || len(recs) != int(last) {
			t.Fatalf("%s: %d records, torn %v, damaged %v, %v; want 1..%d", what, len(recs), torn, damaged, err, last)
		}
		for i, rec := range recs {
			if rec.LSN != uint64(i+1) {
				t.Fatalf("%s: record %d has LSN %d", what, i, rec.LSN)
			}
		}
		return recs
	}

	trim(6, nil)
	check("clean trim", 6)
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("a trim of a clean log rewrote it: %v", err)
	}

	segs, err := listSegments(faultfs.OS, logDir(dir))
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments = %v, %v; want 3", segs, err)
	}
	f, err := os.OpenFile(segs[2].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil { // a torn frame
		t.Fatal(err)
	}
	f.Close()
	next := edges(40, 41)
	trim(4, next)
	if recs := check("trim of a torn log", 5); !slices.Equal(recs[4].Inserts, next) {
		t.Fatalf("record 5 = %+v, want the append after the trim", recs[4])
	}
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Fatalf("a torn log was not rewritten (%v)", err)
	}
}

func TestScanGapStopsAtConsecutivePrefix(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Checkpoint(0, sourceOf(4, nil), nil); err != nil {
		t.Fatal(err)
	}
	for _, lsn := range []uint64{1, 2, 4, 5} { // 3 missing
		frame := AppendRecord(nil, lsn, nil, edges(0, uint32(lsn)))
		if err := gd.Log().Append(frame, lsn); err != nil {
			t.Fatal(err)
		}
	}
	gd.Sync()  //nolint:errcheck
	gd.Close() //nolint:errcheck
	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Gap || len(sc.Records) != 2 || lastLSN(sc) != 2 {
		t.Fatalf("gap scan = gap=%v records=%d max=%d; want gap with LSNs 1..2",
			sc.Gap, len(sc.Records), lastLSN(sc))
	}
	if sc.Damaged {
		t.Fatal("a gap must not classify as damage (it is provably unacked)")
	}
}

// TestScanFallsBackToOlderCheckpoint: Scan offers the checkpoints newest
// first, and each one the bring-up refuses — as recovery's refuses tables
// that fail their checksums — is a fallback to the next, with a reason
// naming it. A checkpoint whose tables' header does not parse is never
// offered, and with nothing accepted the directory is unrecoverable.
func TestScanFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Checkpoint(3, sourceOf(4, edges(0, 1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Checkpoint(7, sourceOf(4, edges(0, 1, 1, 2)), nil); err != nil {
		t.Fatal(err)
	}
	gd.Close() //nolint:errcheck
	cks, err := listCheckpoints(faultfs.OS, dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints = %v, %v; want 2", cks, err)
	}

	var offered []uint64
	refuseNewest := func(sc *Recovered) error {
		offered = append(offered, sc.Manifest.LSN)
		if sc.Manifest.LSN == 7 {
			return errors.New("edge table crc mismatch")
		}
		return nil
	}
	sc, err := Scan(faultfs.OS, dir, refuseNewest)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Fallback || sc.Manifest.LSN != 3 || !slices.Equal(offered, []uint64{7, 3}) {
		t.Fatalf("scan = fallback=%v lsn=%d after offering %v, want a fallback to LSN 3 after 7", sc.Fallback, sc.Manifest.LSN, offered)
	}
	if want := fmt.Sprintf("checkpoint %d: edge table crc mismatch", cks[0].seq); sc.Reason != want {
		t.Fatalf("fallback reason %q, want %q", sc.Reason, want)
	}

	// With the older checkpoint's header damaged as well, nothing is left.
	meta := filepath.Join(cks[1].path, ckptGraphBase+".meta")
	if err := os.Truncate(meta, 3); err != nil {
		t.Fatal(err)
	}
	offered = nil
	if _, err := Scan(faultfs.OS, dir, refuseNewest); !errors.Is(err, ErrNoCheckpoint) || !slices.Equal(offered, []uint64{7}) {
		t.Fatalf("scan with all checkpoints damaged = %v after offering %v, want ErrNoCheckpoint after 7", err, offered)
	}
}

// TestScanReadsNoTable: the tables are the bring-up's to check, so Scan
// offers a checkpoint whose node table, edge table and sidecar are gone —
// it reads the manifest, the tables' header and the cores file only.
func TestScanReadsNoTable(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cores := []uint32{1, 1, 0, 0}
	if _, err := gd.Checkpoint(5, sourceOf(4, edges(0, 1)), cores); err != nil {
		t.Fatal(err)
	}
	gd.Close() //nolint:errcheck
	cks, err := listCheckpoints(faultfs.OS, dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("checkpoints = %v, %v; want 1", cks, err)
	}
	for _, ext := range []string{".nt", ".et", ".crc"} {
		if err := os.Remove(CheckpointBase(cks[0].path) + ext); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil || sc.Manifest.LSN != 5 || sc.Fallback || sc.Damaged || !slices.Equal(sc.Cores, cores) {
		t.Fatalf("scan = %+v, %v; want the checkpoint at 5 with its cores", sc, err)
	}
}

// TestManifestRefusesOutOfRangeCounts: a manifest also arrives over the
// network, so a node count past 2^32 − 1 or an arc count past 2^63 − 1 is
// refused, not taken modulo 2^32 or turned negative.
func TestManifestRefusesOutOfRangeCounts(t *testing.T) {
	manifest := func(nodes, arcs string) []byte {
		body := "version=1\nseq=1\nlsn=0\nnodes=" + nodes + "\narcs=" + arcs + "\ncores=0\n"
		return fmt.Appendf(nil, "%scrc=%d\n", body, crc32.Checksum([]byte(body), castagnoli))
	}
	if m, err := ParseManifest(manifest("4294967295", "9223372036854775807")); err != nil || m.Nodes != 1<<32-1 || m.Arcs != 1<<63-1 {
		t.Fatalf("largest counts: %+v, %v", m, err)
	}
	for _, bad := range [][2]string{{"4294967296", "0"}, {"0", "9223372036854775808"}, {"8589934593", "2"}, {"1", "18446744073709551615"}} {
		if m, err := ParseManifest(manifest(bad[0], bad[1])); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("nodes=%s arcs=%s: %+v, %v; want a refusal", bad[0], bad[1], m, err)
		}
	}
}

func TestScanEmptyDirIsNoData(t *testing.T) {
	if _, err := Scan(faultfs.OS, t.TempDir(), nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("scan of empty dir = %v, want ErrNoData", err)
	}
}

func TestCheckpointRetentionTruncatesLogs(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, &Options{SegmentBytes: 32}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	m := sourceOf(16, nil)
	if _, err := gd.Checkpoint(0, m, nil); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 6; lsn++ {
		ins := edges(uint32(lsn), uint32(lsn)+1)
		frame := AppendRecord(nil, lsn, nil, ins)
		if err := gd.Log().Append(frame, lsn); err != nil {
			t.Fatal(err)
		}
		m.insert(ins)
	}
	if _, err := gd.Checkpoint(4, m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Checkpoint(6, m, nil); err != nil {
		t.Fatal(err)
	}
	// Retention keeps the two newest checkpoints (LSN 4 and 6); segments
	// wholly at or below LSN 4 are gone, the rest survive.
	cks, err := listCheckpoints(faultfs.OS, dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints after retention = %d (%v), want 2", len(cks), err)
	}
	recs, _, _, err := readLogDir(faultfs.OS, logDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.LSN <= 3 {
			t.Fatalf("segment with LSN %d survived truncation below the older checkpoint", r.LSN)
		}
	}
	// Scanning still recovers: newest checkpoint + tail 5..6.
	sc, err := Scan(faultfs.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 6 || lastLSN(sc) != 6 || sc.Gap {
		t.Fatalf("scan after retention = lsn %d max %d gap %v, want 6/6/false",
			sc.Manifest.LSN, lastLSN(sc), sc.Gap)
	}
	gd.Close() //nolint:errcheck
}

// tearFS tears the one write it is armed for: half the bytes land, then
// the write fails — the worst a failed append can leave in a segment.
type tearFS struct {
	faultfs.FS
	armed *atomic.Bool
}

func (fs tearFS) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tearFile{f, fs.armed}, nil
}

type tearFile struct {
	faultfs.File
	armed *atomic.Bool
}

func (f tearFile) Write(p []byte) (int, error) {
	if f.armed.CompareAndSwap(true, false) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("torn write")
	}
	return f.File.Write(p)
}

// drainTail reads a tail until it has caught up (or, on a closed log,
// ended), max records per Next.
func drainTail(t *testing.T, tl *Tail, max int) []Record {
	t.Helper()
	var all []Record
	for {
		recs, _, err := tl.Next(max)
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		if len(recs) > max {
			t.Fatalf("Next(%d) returned %d records", max, len(recs))
		}
		if len(recs) == 0 {
			return all
		}
		all = append(all, recs...)
	}
}

// sameRecords fails the test unless got is exactly want.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Heartbeat ||
			!sameEdges(got[i].Deletes, want[i].Deletes) || !sameEdges(got[i].Inserts, want[i].Inserts) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestTailProperty: a tail over a log rolling at a random SegmentBytes
// (32…4096) returns exactly the records in (from, last appended], in
// order across rolls — to a reader racing the writer from the start, and
// to cursors opened at random points between appends, each in the
// segment holding record from+1. Half the trials
// tear one append mid-write: no tail ever returns a partial frame or
// anything from that append on, and the log takes nothing after it. Two
// checkpoints at the last LSN then leave the segment holding it as the
// oldest, and an older cursor gets a *TrimmedError naming that oldest
// cursor; from there the records still stream.
func TestTailProperty(t *testing.T) {
	seed := testutil.Seed(t, 79)
	rnd := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 24; trial++ {
		segBytes := int64(32 + rnd.Intn(4096-32+1))
		n := 20 + rnd.Intn(150)
		tearAt := uint64(0)
		if rnd.Intn(2) == 0 {
			tearAt = uint64(1 + rnd.Intn(n))
		}
		policy := []SyncPolicy{SyncNever, SyncInterval}[rnd.Intn(2)]
		what := fmt.Sprintf("trial %d (segBytes %d, n %d, tear at %d)", trial, segBytes, n, tearAt)
		armed := new(atomic.Bool)
		dir := t.TempDir()
		gd, err := Open(dir, &Options{FS: tearFS{faultfs.OS, armed}, SegmentBytes: segBytes, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		l := gd.Log()

		racer, err := l.Tail(0)
		if err != nil {
			t.Fatal(err)
		}
		raced := make(chan []Record)
		go func() {
			var all []Record
			for {
				recs, wait, err := racer.Next(1 + len(all)%7)
				if err != nil {
					if err != io.EOF {
						all = append(all, Record{LSN: 0, Heartbeat: true}) // poison: fails the comparison
					}
					raced <- all
					return
				}
				all = append(all, recs...)
				if len(recs) == 0 {
					<-wait
				}
			}
		}()

		var want []Record
		segStart := map[uint64]uint64{} // model: record LSN -> first LSN of its segment
		var cur, size uint64            // model's open segment and its bytes
		for lsn := uint64(1); lsn <= uint64(n); lsn++ {
			rec := Record{LSN: lsn, Deletes: edges(), Inserts: edges()}
			for k := rnd.Intn(4); k > 0; k-- {
				rec.Inserts = append(rec.Inserts, graph.Edge{U: uint32(rnd.Intn(100)), V: uint32(rnd.Intn(100))})
			}
			for k := rnd.Intn(3); k > 0; k-- {
				rec.Deletes = append(rec.Deletes, graph.Edge{U: uint32(rnd.Intn(100)), V: uint32(rnd.Intn(100))})
			}
			frame := AppendRecord(nil, lsn, rec.Deletes, rec.Inserts)
			rolls := cur == 0 || size+uint64(len(frame)) > uint64(segBytes)
			if lsn == tearAt {
				armed.Store(true)
				if err := l.Append(frame, lsn); err == nil {
					t.Fatalf("%s: a torn append succeeded", what)
				}
				if rolls {
					cur = lsn // its segment exists, with half a header
				}
				if err := l.Append(AppendRecord(nil, lsn, nil, nil), lsn); err == nil {
					t.Fatalf("%s: the log took an append after a failed one", what)
				}
				break
			}
			if err := l.Append(frame, lsn); err != nil {
				t.Fatal(err)
			}
			if rolls {
				cur, size = lsn, segHeaderSize
			}
			size += uint64(len(frame))
			segStart[lsn] = cur
			want = append(want, rec)
			if rnd.Intn(3) == 0 {
				from := uint64(rnd.Intn(int(lsn) + 1))
				tl, err := l.Tail(from)
				if err != nil {
					t.Fatalf("%s: tail at %d: %v", what, from, err)
				}
				if from < lsn && tl.seg != segStart[from+1] {
					t.Fatalf("%s: tail at %d opened in segment %d, record %d is in %d", what, from, tl.seg, from+1, segStart[from+1])
				}
				sameRecords(t, fmt.Sprintf("%s: tail at %d after %d", what, from, lsn), drainTail(t, tl, 1+rnd.Intn(8)), want[from:])
			}
		}
		last := uint64(len(want))
		from := uint64(rnd.Intn(int(last) + 1))
		tl, err := l.Tail(from)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, what+": tail after the appends", drainTail(t, tl, 1+rnd.Intn(8)), want[from:])
		if err := gd.Close(); err != nil && tearAt == 0 {
			t.Fatal(err)
		}
		sameRecords(t, what+": racing reader", <-raced, want)
		if last == 0 {
			continue
		}

		// Retention: the older of two checkpoints at last drops every
		// segment but the one holding last — or, when the torn append
		// opened a segment after it, that one.
		for i := 0; i < 2; i++ {
			if _, err := gd.Checkpoint(last, sourceOf(4, nil), nil); err != nil {
				t.Fatal(err)
			}
		}
		oldest := segStart[last] - 1
		if cur == last+1 {
			oldest = last
		}
		var trimmed *TrimmedError
		if _, err := l.Tail(oldest - 1); oldest > 0 && (!errors.As(err, &trimmed) || trimmed.Oldest != oldest) {
			t.Fatalf("%s: tail below retention = %v, want TrimmedError{%d}", what, err, oldest)
		}
		tl, err = l.Tail(oldest)
		if err != nil {
			t.Fatalf("%s: tail at the oldest cursor %d: %v", what, oldest, err)
		}
		sameRecords(t, what+": tail from the oldest cursor", drainTail(t, tl, 8), want[oldest:])
	}
}

// lastLSN is the LSN a scan's state reaches once its tail is replayed.
func lastLSN(sc *Recovered) uint64 {
	if n := len(sc.Records); n > 0 {
		return sc.Records[n-1].LSN
	}
	return sc.Manifest.LSN
}
