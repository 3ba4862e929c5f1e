package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
)

func edges(pairs ...uint32) []memgraph.Edge {
	es := make([]memgraph.Edge, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		es = append(es, memgraph.Edge{U: pairs[i], V: pairs[i+1]})
	}
	return es
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Inserts: edges(0, 1, 2, 3)},
		{LSN: 2, Deletes: edges(0, 1)},
		{LSN: 3},
		{LSN: 4, Deletes: edges(5, 6), Inserts: edges(7, 8, 9, 10, 11, 12)},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r.LSN, r.Deletes, r.Inserts)
	}
	off := 0
	for i, want := range recs {
		got, next, done, err := decodeRecord(buf, off)
		if err != nil || done {
			t.Fatalf("record %d: err=%v done=%v", i, err, done)
		}
		if got.LSN != want.LSN || !sameEdges(got.Deletes, want.Deletes) || !sameEdges(got.Inserts, want.Inserts) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		off = next
	}
	if _, _, done, _ := decodeRecord(buf, off); !done {
		t.Fatal("decode did not report end of buffer")
	}
	// Any single flipped bit in the stream is caught by the frame CRC (or
	// rejected as a torn/short frame).
	for bit := 0; bit < len(buf)*8; bit += 37 {
		bad := append([]byte(nil), buf...)
		bad[bit/8] ^= 1 << (bit % 8)
		off, ok := 0, true
		var rerr error
		var got []Record
		for ok {
			rec, next, done, err := decodeRecord(bad, off)
			if done {
				break
			}
			if err != nil {
				rerr = err
				break
			}
			got = append(got, rec)
			off = next
			ok = off <= len(bad)
		}
		if rerr == nil && len(got) == len(recs) && reflect.DeepEqual(got, recs) {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}

func sameEdges(a, b []memgraph.Edge) bool {
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
	ctr := &stats.WalCounters{}
	l, err := newLog(faultfs.OS, dir, 0, SyncAlways, ctr)
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
	l, err := newLog(faultfs.OS, dir, 32, SyncInterval, &stats.WalCounters{})
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

func TestTruncateBelowKeepsCoveringSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := newLog(faultfs.OS, dir, 32, SyncInterval, &stats.WalCounters{})
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

// sliceSource is the tests' checkpoint Source: resident sorted lists.
type sliceSource [][]uint32

// sourceOf builds a sliceSource over n nodes from explicit edges.
func sourceOf(n uint32, es []memgraph.Edge) sliceSource {
	s := make(sliceSource, n)
	s.insert(es)
	return s
}

func (s sliceSource) insert(es []memgraph.Edge) {
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

func (s sliceSource) Scan(_ *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	for v, l := range s {
		if err := fn(uint32(v), l); err != nil {
			return err
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
	if err := gd.Checkpoint(1, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := gd.Checkpoint(2, lyingSource{m}, nil); err == nil {
		t.Fatal("a source streaming fewer arcs than it reports was committed")
	}
	unsorted := sliceSource{{3, 1}, {0}, {}, {0}, {}, {}} // list [3 1] violates the scan contract
	if err := gd.Checkpoint(3, unsorted, nil); err == nil {
		t.Fatal("a source streaming an unsorted list was committed")
	}
	sc, err := Scan(faultfs.OS, dir)
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
	if err := gd.Checkpoint(0, m, cores); err != nil {
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

	sc, err := Scan(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 0 || sc.Fallback || sc.Damaged || sc.Gap || sc.Torn {
		t.Fatalf("scan = %+v, want clean checkpoint at LSN 0", sc)
	}
	if len(sc.Records) != 3 || sc.MaxLSN() != 3 {
		t.Fatalf("replay tail = %d records, MaxLSN %d; want 3 and 3", len(sc.Records), sc.MaxLSN())
	}
	if !reflect.DeepEqual(sc.Cores, cores) {
		t.Fatalf("cores = %v, want %v", sc.Cores, cores)
	}
}

// TestScanMergesLegacyShardLogs: a directory written by the retired
// sharded engine holds one log per shard writer, with the graph-level
// LSNs interleaved across them. Scan merges them into one consecutive
// tail, and once recovery's checkpoint covers it the reset sweeps every
// s* directory, so a second recovery replays nothing stale.
func TestScanMergesLegacyShardLogs(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sourceOf(16, nil)
	if err := gd.Checkpoint(0, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}
	logs := make([]*Log, 3)
	for i := range logs {
		// One record per segment, so retention has something to drop.
		l, err := newLog(faultfs.OS, filepath.Join(walRoot(dir), fmt.Sprintf("s%d", i)), 32, SyncAlways, &stats.WalCounters{})
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

	sc, err := Scan(faultfs.OS, dir)
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
	// reset the logs. A second checkpoint makes LSN 7 the older retained
	// one, so retention truncates below it — in every log directory.
	gd, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := gd.Checkpoint(sc.MaxLSN(), m, nil); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := listSegments(faultfs.OS, filepath.Join(walRoot(dir), "s1")); err != nil || len(segs) != 1 {
		t.Fatalf("s1 holds %d segments after retention (%v), want only its newest", len(segs), err)
	}
	if err := gd.ResetLogs(); err != nil {
		t.Fatal(err)
	}
	if err := gd.Close(); err != nil {
		t.Fatal(err)
	}
	if dirs, err := logDirs(faultfs.OS, dir); err != nil || len(dirs) != 1 || dirs[0] != logDir(dir) {
		t.Fatalf("log directories after reset = %v (%v), want only s0", dirs, err)
	}
	sc, err = Scan(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 7 || len(sc.Records) != 0 {
		t.Fatalf("second scan = checkpoint LSN %d + %d records, want 7 + 0", sc.Manifest.LSN, len(sc.Records))
	}
}

func TestScanGapStopsAtConsecutivePrefix(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.Checkpoint(0, sourceOf(4, nil), nil); err != nil {
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
	sc, err := Scan(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Gap || len(sc.Records) != 2 || sc.MaxLSN() != 2 {
		t.Fatalf("gap scan = gap=%v records=%d max=%d; want gap with LSNs 1..2",
			sc.Gap, len(sc.Records), sc.MaxLSN())
	}
	if sc.Damaged {
		t.Fatal("a gap must not classify as damage (it is provably unacked)")
	}
}

func TestScanFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gd, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.Checkpoint(3, sourceOf(4, edges(0, 1)), nil); err != nil {
		t.Fatal(err)
	}
	if err := gd.Checkpoint(7, sourceOf(4, edges(0, 1, 1, 2)), nil); err != nil {
		t.Fatal(err)
	}
	gd.Close() //nolint:errcheck

	// Corrupt the newest checkpoint's graph table; Scan must fall back to
	// the older one and say why.
	cks, err := listCheckpoints(faultfs.OS, dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints = %v, %v; want 2", cks, err)
	}
	nt := filepath.Join(cks[0].path, ckptGraphBase+".nt")
	data, err := os.ReadFile(nt)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(nt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sc, err := Scan(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Fallback || sc.Manifest.LSN != 3 {
		t.Fatalf("scan = fallback=%v lsn=%d, want fallback to LSN 3", sc.Fallback, sc.Manifest.LSN)
	}
	if sc.Reason == "" {
		t.Fatal("fallback scan has no reason")
	}

	// With both checkpoints damaged the directory is unrecoverable.
	meta := filepath.Join(cks[1].path, ckptGraphBase+".meta")
	if err := os.Truncate(meta, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(faultfs.OS, dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("scan with all checkpoints damaged = %v, want ErrNoCheckpoint", err)
	}
}

func TestScanEmptyDirIsNoData(t *testing.T) {
	if _, err := Scan(faultfs.OS, t.TempDir()); !errors.Is(err, ErrNoData) {
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
	if err := gd.Checkpoint(0, m, nil); err != nil {
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
	if err := gd.Checkpoint(4, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := gd.Checkpoint(6, m, nil); err != nil {
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
	sc, err := Scan(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 6 || sc.MaxLSN() != 6 || sc.Gap {
		t.Fatalf("scan after retention = lsn %d max %d gap %v, want 6/6/false",
			sc.Manifest.LSN, sc.MaxLSN(), sc.Gap)
	}
	gd.Close() //nolint:errcheck
}
