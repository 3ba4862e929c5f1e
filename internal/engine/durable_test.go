package engine_test

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/serve"
	"kcore/internal/storage"
	"kcore/internal/verify"
	"kcore/internal/wal"
)

// durableOptions returns registry options putting the registry in
// data-dir mode with the always-fsync policy (so every acked Sync is a
// durable commit) and one update per batch (so the WAL/oracle
// correspondence is exact).
func durableOptions(dataDir string) *engine.Options {
	return &engine.Options{
		Serve: serve.Options{MaxBatch: 1},
		Durability: &engine.DurabilityOptions{
			Dir:    dataDir,
			Policy: wal.SyncAlways,
		},
	}
}

// freshEdges picks count edges absent from the writeGraph(n, seed)
// fixture, deterministically.
func freshEdges(n uint32, seed int64, count int) []serve.Update {
	present := make(map[[2]uint32]bool)
	for _, e := range gen.Social(n, 3, 8, 8, seed) {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		present[[2]uint32{u, v}] = true
	}
	var ups []serve.Update
	for u := uint32(0); u < n && len(ups) < count; u++ {
		for v := u + 1; v < n && len(ups) < count; v++ {
			if !present[[2]uint32{u, v}] {
				ups = append(ups, serve.Update{Op: serve.OpInsert, U: u, V: v})
			}
		}
	}
	return ups
}

// oracleCores replays the first r updates through a plain in-memory
// serving engine over a fresh copy of the same fixture and returns the
// resulting core numbers — the ground truth recovery must reproduce.
func oracleCores(t *testing.T, n uint32, seed int64, ups []serve.Update, r int) []uint32 {
	t.Helper()
	return memCoresAfter(t, writeGraph(t, n, seed), [][]serve.Update{ups[:r]})[0]
}

// copyTree snapshots a directory tree — the moral equivalent of pulling
// the plug and imaging the disk, for producing crash images of a live
// data dir (files are stable between acked Syncs in these tests).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// durStats fetches the durability snapshot of a registered engine.
func durStats(t *testing.T, eng engine.Engine) (s struct {
	LSN         uint64
	Replayed    int64
	Checkpoints int64
	Appends     int64
	Degraded    bool
}) {
	t.Helper()
	w := eng.Report().Durability
	if w == nil {
		t.Fatal("durable engine reports no durability block")
	}
	s.LSN, s.Replayed, s.Checkpoints, s.Appends, s.Degraded =
		w.LSN, w.Replayed, w.Checkpoints, w.Appends, w.Degraded
	return s
}

func TestRecoverEmptyDataDir(t *testing.T) {
	dataDir := t.TempDir()
	reg := engine.NewRegistry(durableOptions(dataDir))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 0 {
		t.Fatalf("recovery in an empty dir found %d graphs", len(rep.Graphs))
	}
	if !strings.Contains(rep.Summary(), "recovered 0 graphs") {
		t.Fatalf("summary = %q", rep.Summary())
	}
	// The dir is usable right away: opening takes an initial checkpoint
	// and every acked write is logged.
	const n, seed = 80, 31
	eng, err := reg.Open("g", writeGraph(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	ups := freshEdges(n, seed, 4)
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	st := durStats(t, eng)
	if st.Checkpoints < 1 || st.Appends != 4 || st.LSN != 4 || st.Degraded {
		t.Fatalf("stats after 4 applies = %+v", st)
	}
}

func TestRecoverCheckpointNoTail(t *testing.T) {
	const n, seed, k = 80, 32, 5
	dataDir := t.TempDir()
	ups := freshEdges(n, seed, k)

	reg := engine.NewRegistry(durableOptions(dataDir))
	eng, err := reg.Open("g", writeGraph(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Clone(eng.Snapshot().Cores())
	if err := reg.Close(); err != nil { // clean shutdown: final checkpoint
		t.Fatal(err)
	}

	reg2 := engine.NewRegistry(durableOptions(dataDir))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	if g := rep.Graphs[0]; g.Replayed != 0 || g.Degraded {
		t.Fatalf("clean shutdown should recover from checkpoint alone: %+v", g)
	}
	eng2, ok := reg2.Get("g")
	if !ok {
		t.Fatal("recovered graph not registered")
	}
	if got := eng2.Snapshot().Cores(); !slices.Equal(got, want) {
		t.Fatal("recovered cores differ from pre-shutdown cores")
	}
	if st := durStats(t, eng2); st.LSN != k {
		t.Fatalf("recovered LSN = %d, want %d", st.LSN, k)
	}
	// The recovered graph accepts new writes.
	more := freshEdges(n, seed, k+1)[k:]
	if err := eng2.Apply(more...); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// crashImage opens a durable graph, applies k updates with acked Syncs,
// and images the data dir while the process is still "running" — the
// image holds the initial checkpoint plus a k-record WAL tail.
func crashImage(t *testing.T, n uint32, seed int64, k int) (img string, ups []serve.Update) {
	t.Helper()
	dataDir := t.TempDir()
	ups = freshEdges(n, seed, k)
	reg := engine.NewRegistry(durableOptions(dataDir))
	defer reg.Close()
	eng, err := reg.Open("g", writeGraph(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	img = t.TempDir()
	copyTree(t, dataDir, img)
	return img, ups
}

// TestDurableFirstOpenLeavesBaseAlone: a durable graph serves its own
// copy of the tables from its first open on, and folds back into it — the
// files the operator passed are only ever read. Here the update buffer
// fills several times before the process dies without a Close; the
// base files must be byte for byte what they were, their modification
// times must not read as "the operator refreshed the base" (that signal
// once made kcored drop the correctly recovered graph, WAL and all, after
// the server's own first in-place compaction), and recovery must serve
// every acked update: the newest checkpoint plus its tail.
func TestDurableFirstOpenLeavesBaseAlone(t *testing.T) {
	const n, seed, k = 80, 36, 24
	readTables := func(base string) string {
		var all []byte
		for _, ext := range []string{".meta", ".nt", ".et"} {
			data, err := os.ReadFile(base + ext)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return string(all)
	}
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			base := writeGraph(t, n, seed)
			before := readTables(base)
			dataDir := t.TempDir()
			opts := durableOptions(dataDir)
			opts.Open = kcore.OpenOptions{BlockSize: 512, BufferArcs: 8} // five edits overflow it
			reg := engine.NewRegistry(opts)
			defer reg.Close()
			eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			// A copy, not links: the operator may rewrite the base in place.
			if sameTables(t, wal.LiveBase(filepath.Join(dataDir, "g")), base) {
				t.Error("the first open linked the operator's files into live/")
			}
			ups := freshEdges(n, seed, k)
			for _, up := range ups {
				if err := eng.Apply(up); err != nil {
					t.Fatal(err)
				}
			}
			if engine.GraphOf(eng).FoldBacks() == 0 {
				t.Fatalf("fixture: %d updates against an 8-arc buffer folded nothing back", k)
			}
			// The last fill's checkpoint may still be streaming: one more
			// waits for it, so the image is of files at rest.
			if err := eng.(engine.Checkpointer).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			img := t.TempDir()
			copyTree(t, dataDir, img) // the process dies here: no Close, no final checkpoint
			sc, err := wal.Scan(nil, filepath.Join(img, "g"), nil)
			if err != nil || sc.Manifest.LSN+uint64(len(sc.Records)) != k {
				t.Fatalf("image: %v, checkpoint at %d and %d records behind it, want %d acked records", err, sc.Manifest.LSN, len(sc.Records), k)
			}

			if readTables(base) != before {
				t.Error("the durable graph wrote to the base files it was opened from")
			}
			reg2 := engine.NewRegistry(durableOptions(img))
			defer reg2.Close()
			rep, err := reg2.Recover()
			if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
				t.Fatalf("recovery: %v, %+v", err, rep)
			}
			if reg2.BaseChanged("g", base) {
				t.Error("the untouched base reads as another graph than the one recovered")
			}
			if rep.Graphs[0].Replayed != int64(len(sc.Records)) {
				t.Errorf("replayed %d records, want the %d behind the checkpoint", rep.Graphs[0].Replayed, len(sc.Records))
			}
			eng2, _ := reg2.Get("g")
			if !slices.Equal(eng2.Snapshot().Cores(), oracleCores(t, n, seed, ups, k)) {
				t.Error("recovered cores differ from the oracle over every acked update")
			}
		})
	}
}

func TestRecoverReplaysWalTail(t *testing.T) {
	const n, seed, k = 80, 33, 6
	img, ups := crashImage(t, n, seed, k)
	sc, err := wal.Scan(nil, filepath.Join(img, "g"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Recover with the default batch size: replay is per record whatever
	// the coalescing window, one epoch each, as when they were logged.
	opts := durableOptions(img)
	opts.Serve.MaxBatch = 0
	reg := engine.NewRegistry(opts)
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	if rep.Graphs[0].Replayed != k {
		t.Fatalf("replayed %d records, want %d", rep.Graphs[0].Replayed, k)
	}
	eng, _ := reg.Get("g")
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, n, seed, ups, k)) {
		t.Fatal("recovered cores differ from the oracle")
	}
	if ep := eng.Snapshot(); ep.Seq != k || ep.Applied != k {
		t.Fatalf("replay of %d records published %d epochs covering %d updates, want one epoch per record", k, ep.Seq, ep.Applied)
	}
	if st := durStats(t, eng); st.Appends != 0 || st.LSN != k {
		t.Fatalf("replay re-logged its records or lost the watermark: %+v", st)
	}
	// Recovery copies nothing: live/ is hard links to the checkpoint it
	// chose.
	if !sameTables(t, wal.LiveBase(filepath.Join(img, "g")), wal.CheckpointBase(sc.Path)) {
		t.Error("live/ is not the chosen checkpoint's tables")
	}
}

// TestRecoverRefusedRecordComesUpDegraded: a logged record applies in
// full on the state it was logged against, so a tail record the
// recovered graph refuses — here one re-inserting an edge an earlier
// record already inserted — means checkpoint and log disagree. Recovery
// says so and serves read-only instead of acking a state nobody wrote.
func TestRecoverRefusedRecordComesUpDegraded(t *testing.T) {
	const n, seed, k = 80, 38, 3
	img, ups := crashImage(t, n, seed, k)
	segs, err := filepath.Glob(filepath.Join(img, "g", "wal", "s0", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want exactly 1", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(wal.AppendRecord(nil, k+1, nil, []kcore.Edge{{U: ups[0].U, V: ups[0].V}})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := engine.NewRegistry(durableOptions(img))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Graphs[0]
	if g.Err != nil || !g.Degraded || !strings.Contains(g.Reason, fmt.Sprintf("record %d", k+1)) {
		t.Fatalf("a refused tail record must degrade and name the record: %+v", g)
	}
	eng, _ := reg.Get("g")
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, n, seed, ups, k)) {
		t.Fatal("degraded graph does not serve the records that did apply")
	}
	if err := eng.Apply(freshEdges(n, seed, k+1)[k]); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("write on degraded graph = %v, want ErrDegraded", err)
	}
}

func TestRecoverTornLastRecord(t *testing.T) {
	const n, seed, k = 80, 34, 6
	img, ups := crashImage(t, n, seed, k)

	// Chop bytes off the single log segment: the crash tore the last
	// record mid-write. Recovery must drop exactly that record.
	segs, err := filepath.Glob(filepath.Join(img, "g", "wal", "s0", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want exactly 1", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	reg := engine.NewRegistry(durableOptions(img))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Graphs[0]
	if g.Err != nil || g.Degraded {
		t.Fatalf("a torn tail is a normal crash, not damage: %+v", g)
	}
	if g.Replayed != k-1 {
		t.Fatalf("replayed %d records, want %d (last one torn)", g.Replayed, k-1)
	}
	eng, _ := reg.Get("g")
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, n, seed, ups, k-1)) {
		t.Fatal("recovered cores differ from the oracle at the torn prefix")
	}
}

func TestRecoverTailWithoutCheckpointFails(t *testing.T) {
	const n, seed, k = 80, 35, 4
	img, _ := crashImage(t, n, seed, k)
	if err := os.RemoveAll(filepath.Join(img, "g", "ckpt")); err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(durableOptions(img))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	if rep.Graphs[0].Err == nil {
		t.Fatal("a WAL tail with no checkpoint recovered from nothing")
	}
	if _, ok := reg.Get("g"); ok {
		t.Fatal("unrecoverable graph was registered")
	}
	if !strings.Contains(rep.Summary(), "unrecoverable") {
		t.Fatalf("summary does not surface the failure: %q", rep.Summary())
	}
}

// unlistable is the real filesystem with one directory that cannot be
// listed, as under EMFILE.
type unlistable struct {
	faultfs.FS
	dir string
}

func (f unlistable) ReadDir(name string) ([]os.DirEntry, error) {
	if name == f.dir {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EMFILE}
	}
	return f.FS.ReadDir(name)
}

// TestRecoverSurfacesCheckpointListingError: a checkpoint directory that
// cannot be listed at restart is an error of that restart, carrying its
// cause — not "this graph has no checkpoints", which the caller answers
// by re-creating the graph from its base over two good checkpoints and
// an acked WAL tail. Nothing under the graph's directory changes.
func TestRecoverSurfacesCheckpointListingError(t *testing.T) {
	const n, seed, k = 80, 38, 5
	img, ups := crashImage(t, n, seed, k)
	readTree := func() map[string]string {
		files := make(map[string]string)
		err := filepath.Walk(filepath.Join(img, "g"), func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := readTree()

	opts := durableOptions(img)
	opts.Durability.FS = unlistable{faultfs.OS, filepath.Join(img, "g", "ckpt")}
	reg := engine.NewRegistry(opts)
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	gerr := rep.Graphs[0].Err
	if !errors.Is(gerr, syscall.EMFILE) || errors.Is(gerr, wal.ErrNoCheckpoint) || errors.Is(gerr, wal.ErrNoData) {
		t.Fatalf("recovery error = %v, want the listing failure itself", gerr)
	}
	if _, ok := reg.Get("g"); ok {
		t.Fatal("a graph whose checkpoints could not be listed was registered")
	}
	if after := readTree(); !maps.Equal(before, after) {
		t.Fatalf("the graph directory changed: %d files before, %d after", len(before), len(after))
	}

	// The same image recovers in full once the directory lists again.
	reg.Close()
	reg2 := engine.NewRegistry(durableOptions(img))
	defer reg2.Close()
	rep, err = reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.Graphs[0]; g.Err != nil || g.Degraded {
		t.Fatalf("recovery after the transient failure: %+v", g)
	}
	eng, _ := reg2.Get("g")
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, n, seed, ups, k)) {
		t.Fatal("recovered cores differ from the oracle at all acked updates")
	}
}

func TestRecoverMidLogDamageComesUpDegraded(t *testing.T) {
	const n, seed, k = 80, 36, 5
	dataDir := t.TempDir()
	ups := freshEdges(n, seed, k)

	// A tiny segment threshold forces one record per segment, so damage
	// in the first segment is provably mid-log, not a torn tail.
	opts := durableOptions(dataDir)
	opts.Durability.SegmentBytes = 32
	reg := engine.NewRegistry(opts)
	eng, err := reg.Open("g", writeGraph(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	img := t.TempDir()
	copyTree(t, dataDir, img)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(img, "g", "wal", "s0", "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments = %v, %v; want several", segs, err)
	}
	slices.Sort(segs)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := engine.NewRegistry(durableOptions(img))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Graphs[0]
	if g.Err != nil {
		t.Fatalf("mid-log damage must degrade, not fail: %v", g.Err)
	}
	if !g.Degraded || g.Reason == "" {
		t.Fatalf("graph not degraded (or no reason): %+v", g)
	}
	eng2, ok := reg2.Get("g")
	if !ok {
		t.Fatal("degraded graph not registered")
	}
	// Reads keep working: the checkpoint state serves.
	if !slices.Equal(eng2.Snapshot().Cores(), oracleCores(t, n, seed, ups, 0)) {
		t.Fatal("degraded graph does not serve its checkpoint state")
	}
	// Writes are refused.
	if err := eng2.Apply(ups[0]); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("write on degraded graph = %v, want ErrDegraded", err)
	}
	if cp, ok := eng2.(engine.Checkpointer); !ok {
		t.Fatal("degraded engine lost its Checkpointer")
	} else if err := cp.Checkpoint(); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("checkpoint on degraded graph = %v, want ErrDegraded", err)
	}
	// The flag is surfaced in listings.
	infos := reg2.List()
	if len(infos) != 1 || !infos[0].Degraded || infos[0].Durability == nil {
		t.Fatalf("List does not surface degradation: %+v", infos)
	}
}

func TestDataDirDoubleOpenRejected(t *testing.T) {
	dataDir := t.TempDir()
	reg1 := engine.NewRegistry(durableOptions(dataDir))
	defer reg1.Close()
	if _, err := reg1.Open("g", writeGraph(t, 80, 37)); err != nil {
		t.Fatal(err)
	}

	reg2 := engine.NewRegistry(durableOptions(dataDir))
	if _, err := reg2.Open("h", writeGraph(t, 80, 38)); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second registry Open = %v, want data-dir lock rejection", err)
	}
	if _, err := reg2.Recover(); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second registry Recover = %v, want data-dir lock rejection", err)
	}
	reg2.Close() //nolint:errcheck

	// Releasing the first registry frees the lock.
	if err := reg1.Close(); err != nil {
		t.Fatal(err)
	}
	reg3 := engine.NewRegistry(durableOptions(dataDir))
	defer reg3.Close()
	if _, err := reg3.Recover(); err != nil {
		t.Fatalf("Recover after lock release: %v", err)
	}
}

// TestDurableDiskRoundTrip checks that the WAL shell wraps the disk
// backend unchanged: writes are logged and survive a shutdown, recovery
// routes through the CONFIG's backend label back to a disk engine over
// the checkpoint copy, and the recovered cores match the pre-shutdown
// state exactly. The live copy carries the checksum sidecar on both
// paths — the base's on the first open, so that open reads exactly what
// a plain cached open of the base does, with no pass over the tables;
// the checkpoint's on recovery.
func TestDurableDiskRoundTrip(t *testing.T) {
	const n, seed, k = 120, 41, 6
	dataDir := t.TempDir()
	ups := freshEdges(n, seed, k)
	base := writeGraph(t, n, seed)
	cfg := engine.BackendConfig{Backend: engine.BackendDisk, CacheBlocks: 8}

	plain := engine.NewRegistry(nil)
	pe, err := plain.OpenBackend("g", base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainReads := pe.Report().IO.Reads
	plain.Close()

	reg := engine.NewRegistry(durableOptions(dataDir))
	eng, err := reg.OpenBackend("g", base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := eng.Report(); rep.Backend != engine.BackendDisk || rep.Disk == nil {
		t.Fatalf("durable wrapper hides the disk backend: %+v", rep)
	}
	if got := eng.Report().IO.Reads; got != plainReads {
		t.Fatalf("durable first open read %d blocks, a plain cached open of the base %d", got, plainReads)
	}
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Clone(eng.Snapshot().Cores())
	if !slices.Equal(want, oracleCores(t, n, seed, ups, k)) {
		t.Fatal("disk-backed durable cores differ from the in-memory oracle")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := engine.NewRegistry(durableOptions(dataDir))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	eng2, _ := reg2.Get("g")
	if eng2.Report().Backend != engine.BackendDisk {
		t.Fatal("recovered engine is not disk-backed despite the CONFIG label")
	}
	if !slices.Equal(eng2.Snapshot().Cores(), want) {
		t.Fatal("recovered disk-backed cores differ from pre-shutdown cores")
	}
	if _, err := os.Stat(wal.LiveBase(filepath.Join(dataDir, "g")) + ".crc"); err != nil {
		t.Errorf("the live copy recovery made has no checksum sidecar: %v", err)
	}
}

// TestRecoverRemovesLegacyPartsDir: a data dir written while the disk
// backend kept partition files under <name>/parts/ recovers as before
// (checkpoint + WAL are all recovery ever read) and loses the directory
// nothing reads any more.
func TestRecoverRemovesLegacyPartsDir(t *testing.T) {
	const n, seed, k = 80, 40, 3
	img, ups := crashImage(t, n, seed, k)
	parts := filepath.Join(img, "g", "parts")
	if err := os.MkdirAll(parts, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parts, "part-0.g3"), []byte("an old partition generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(durableOptions(img))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery: %v, %+v", err, rep)
	}
	if _, err := os.Stat(parts); !os.IsNotExist(err) {
		t.Errorf("the legacy partition directory survived recovery: %v", err)
	}
	eng, _ := reg.Get("g")
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, n, seed, ups, k)) {
		t.Error("recovered cores differ from the oracle")
	}
}

// TestRecoverLegacyShardedDataDir: a data dir left by a sharded kcored
// (CONFIG naming the retired backend and its topology, one log directory
// per shard writer with the graph-level LSNs interleaved across them)
// comes back as one mem writer with nothing lost, and the post-recovery
// log trim leaves no per-shard directory behind.
func TestRecoverLegacyShardedDataDir(t *testing.T) {
	const n, seed, k = 80, 39, 6
	dataDir := t.TempDir()
	opts := durableOptions(dataDir)
	opts.Durability.SegmentBytes = 32 // one record per segment file
	ups := freshEdges(n, seed, k)
	reg := engine.NewRegistry(opts)
	eng, err := reg.Open("g", writeGraph(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	img := t.TempDir()
	copyTree(t, dataDir, img)
	reg.Close() //nolint:errcheck // the image is what the test recovers

	// Re-dress the image: segment i (named by its first LSN, so sorted
	// by LSN) moves to log directory s(i mod 3).
	walDir := filepath.Join(img, "g", "wal")
	segs, err := filepath.Glob(filepath.Join(walDir, "s0", "*.seg"))
	if err != nil || len(segs) != k {
		t.Fatalf("segments = %v, %v; want %d", segs, err, k)
	}
	for i, seg := range segs {
		sdir := filepath.Join(walDir, fmt.Sprintf("s%d", i%3))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(seg, filepath.Join(sdir, filepath.Base(seg))); err != nil {
			t.Fatal(err)
		}
	}
	legacy := "backend=sharded\nshards=3\npartitioner=ldg\ncache_blocks=8\n"
	if err := os.WriteFile(filepath.Join(img, "g", "CONFIG"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := engine.NewRegistry(durableOptions(img))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	if rep.Graphs[0].Replayed != k {
		t.Fatalf("replayed %d records, want all %d across the three logs", rep.Graphs[0].Replayed, k)
	}
	eng2, _ := reg2.Get("g")
	if r := eng2.Report(); r.Backend != engine.BackendMem || r.Disk.CacheBlocks != 64 {
		t.Fatalf("a legacy sharded CONFIG recovered as %s on %d frames, want the default 64", r.Backend, r.Disk.CacheBlocks)
	}
	edges := gen.Social(n, 3, 8, 8, seed)
	for _, up := range ups {
		edges = append(edges, graph.Edge{U: up.U, V: up.V})
	}
	if err := verify.CheckAgainst(gen.Build(edges), eng2.Snapshot().Cores()); err != nil {
		t.Fatalf("recovered cores differ from the reference: %v", err)
	}
	if dirs, err := filepath.Glob(filepath.Join(walDir, "s*")); err != nil || len(dirs) != 1 || filepath.Base(dirs[0]) != "s0" {
		t.Fatalf("log directories after recovery = %v (%v), want only s0", dirs, err)
	}
}

// TestRecoverParentWrittenDataDir: testdata/parent-datadir was written
// by the commit before the WAL codecs, manifests and bring-ups were
// merged (20a2554; n=48 social graph at seed 41 behind -backend disk
// -cache-blocks 8, block size 512, three acked inserts, a forced
// checkpoint, four more acked inserts, then a crash that tore an eighth
// record mid-write; live/ and LOCK left out). Its log, manifests, CONFIG
// and cores are byte for byte that tree's; its checkpoints' tables, which
// it wrote in format version 1, were rewritten as version 7 through the
// upgrade path storage's refusal of version 1 names (the opening
// checkpoint of kcored built at storage.UpgradeCommit), without checksum
// sidecars. It must recover as it would have there: newest checkpoint
// (LSN 3), four records replayed, the torn one dropped, cores equal to a
// from-scratch decomposition of the acked prefix. With no sidecar, the
// live copy has none and the cached open takes the pass over the tables;
// the checkpoint recovery commits has one.
func TestRecoverParentWrittenDataDir(t *testing.T) {
	const n, seed, k = 48, 41, 7
	img := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-datadir"), img)
	opts := durableOptions(img)
	opts.Open.BlockSize = 512
	reg := engine.NewRegistry(opts)
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded || rep.Graphs[0].Fallback {
		t.Fatalf("recovery report = %+v", rep.Graphs)
	}
	if got := rep.Graphs[0].Replayed; got != 4 {
		t.Fatalf("replayed %d records, want the 4 past the LSN-3 checkpoint", got)
	}
	eng, _ := reg.Get("g")
	r := eng.Report()
	if r.Backend != engine.BackendDisk || r.Disk == nil || r.Disk.CacheBlocks != 8 || r.Durability.LSN != k {
		t.Fatalf("recovered as %s with disk block %+v at LSN %d, want disk, 8 frames, LSN %d", r.Backend, r.Disk, r.Durability.LSN, k)
	}
	edges := gen.Social(n, 3, 8, 8, seed)
	for _, up := range freshEdges(n, seed, k) {
		edges = append(edges, graph.Edge{U: up.U, V: up.V})
	}
	if err := verify.CheckAgainst(gen.Build(edges), eng.Snapshot().Cores()); err != nil {
		t.Fatalf("recovered cores differ from the reference on the acked prefix: %v", err)
	}
	dir := filepath.Join(img, "g")
	if _, err := os.Stat(wal.LiveBase(dir) + ".crc"); !os.IsNotExist(err) {
		t.Errorf("the live copy of a checkpoint written without sidecars has one: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt", "0000000000000003", "graph.crc")); err != nil {
		t.Errorf("the checkpoint recovery committed: %v", err)
	}
}

// TestRecoverRetiredCheckpointFormat puts back into a copy of
// testdata/parent-datadir the format-version-1 headers its checkpoints
// were written with. With both checkpoints retired nothing can be brought
// up: the graph is unrecoverable, not degraded, and the report names the
// upgrade path storage's refusal gives. With only the newest retired,
// recovery falls back past it to the older checkpoint (LSN 0), which is
// version 7: it replays all seven acked records from there, the report
// naming the refused checkpoint and the upgrade, and the cores are the
// acked prefix's.
func TestRecoverRetiredCheckpointFormat(t *testing.T) {
	const n, seed, k = 48, 41, 7
	v1 := map[string]string{
		"0000000000000001": "version=1\nnodes=48\narcs=464\nntcrc=334134218\netcrc=179774348\n",
		"0000000000000002": "version=1\nnodes=48\narcs=470\nntcrc=1077006568\netcrc=2631063164\n",
	}
	recoverWith := func(t *testing.T, retired ...string) (*engine.Registry, engine.GraphRecovery) {
		t.Helper()
		img := t.TempDir()
		copyTree(t, filepath.Join("testdata", "parent-datadir"), img)
		for _, seq := range retired {
			if err := os.WriteFile(filepath.Join(img, "g", "ckpt", seq, "graph.meta"), []byte(v1[seq]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := durableOptions(img)
		opts.Open.BlockSize = 512
		reg := engine.NewRegistry(opts)
		t.Cleanup(func() { reg.Close() })
		rep, err := reg.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Graphs) != 1 {
			t.Fatalf("recovery report = %+v", rep.Graphs)
		}
		return reg, rep.Graphs[0]
	}
	upgrade := "kcored built at commit " + storage.UpgradeCommit

	t.Run("both", func(t *testing.T) {
		reg, gr := recoverWith(t, "0000000000000001", "0000000000000002")
		if gr.Err == nil || gr.Degraded || !strings.Contains(gr.Err.Error(), "format version 1 is retired") || !strings.Contains(gr.Err.Error(), upgrade) {
			t.Fatalf("recovery = %+v (%v), want the graph unrecoverable, naming the upgrade at %s", gr, gr.Err, storage.UpgradeCommit)
		}
		if _, ok := reg.Get("g"); ok {
			t.Fatal("an unrecoverable graph was registered")
		}
	})
	t.Run("newest", func(t *testing.T) {
		reg, gr := recoverWith(t, "0000000000000002")
		if gr.Err != nil || gr.Degraded || !gr.Fallback || gr.Replayed != k || !strings.Contains(gr.Reason, "checkpoint 2") || !strings.Contains(gr.Reason, upgrade) {
			t.Fatalf("recovery = %+v (%v), want a fallback to checkpoint 1 replaying %d records, naming the upgrade", gr, gr.Err, k)
		}
		eng, _ := reg.Get("g")
		edges := gen.Social(n, 3, 8, 8, seed)
		for _, up := range freshEdges(n, seed, k) {
			edges = append(edges, graph.Edge{U: up.U, V: up.V})
		}
		if err := verify.CheckAgainst(gen.Build(edges), eng.Snapshot().Cores()); err != nil {
			t.Fatalf("recovered cores differ from the reference on the acked prefix: %v", err)
		}
	})
}
