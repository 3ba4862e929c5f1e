package engine_test

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/serve"
	"kcore/internal/testutil"
	"kcore/internal/verify"
	"kcore/internal/wal"
)

// createHookFS runs hook before every Create while armed — the seam the
// tests below use to act at a known point inside a checkpoint (the
// checkpoint writer creates graph.nt first and MANIFEST last, both
// inside the hidden tmp directory).
type createHookFS struct {
	faultfs.FS
	armed atomic.Bool
	hook  func(name string)
}

func (f *createHookFS) Create(name string) (faultfs.File, error) {
	if f.armed.Load() {
		f.hook(name)
	}
	return f.FS.Create(name)
}

// inCheckpointTmp reports whether name is the given file of a checkpoint
// still being written.
func inCheckpointTmp(name, file string) bool {
	return strings.Contains(name, ".tmp-") && filepath.Base(name) == file
}

// toServeUpdate converts a stream mutation (valid or not) to a queue update.
func toServeUpdate(mut testutil.Mutation) serve.Update {
	op := serve.OpInsert
	if mut.Op == testutil.OpDelete {
		op = serve.OpDelete
	}
	return serve.Update{Op: op, U: mut.U, V: mut.V}
}

// memCoresAfter feeds rounds of updates to a plain in-memory session
// over base and returns the published cores after each round's Sync —
// the oracle every backend must match bit for bit.
func memCoresAfter(t *testing.T, base string, rounds [][]serve.Update) [][]uint32 {
	t.Helper()
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	oracle, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	out := make([][]uint32, len(rounds))
	for i, ups := range rounds {
		if err := oracle.Apply(ups...); err != nil {
			t.Fatal(err)
		}
		out[i] = oracle.Snapshot().Cores()
	}
	return out
}

// liveHeap reports the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// durableHeap runs the memory-budget scenario on an RMAT graph of
// 2^scale nodes at the given edge factor: open through a durable registry
// behind the given backend, the standard mixed valid/invalid stream with
// cores compared against the mem oracle at every Sync, an explicit
// checkpoint. It returns the live heap the engine holds once all that is
// done, and while the checkpoint has streamed every table but not yet
// released its view — both relative to the heap before the open.
func durableHeap(t *testing.T, backend string, scale, k int, seed int64) (after, atCheckpoint, adjBytes int64) {
	t.Helper()
	const rounds, perRound = 10, 100

	// Everything O(m) the test itself needs — the generator's edge list,
	// the stream's live set, the oracle — lives and dies in this block.
	var (
		base   string
		stream [][]serve.Update
		want   [][]uint32
		extra  serve.Update // one more valid update, for the measured checkpoint to write
	)
	func() {
		n := uint32(1) << scale
		csr, err := memgraph.FromEdges(n, gen.RMAT(scale, k, 0.57, 0.19, 0.19, seed))
		if err != nil {
			t.Fatal(err)
		}
		base = testutil.WriteCSR(t, csr)
		ms := testutil.NewMutationStream(n, seed+1, csr.EdgeList())
		for r := 0; r < rounds; r++ {
			ups := make([]serve.Update, perRound)
			for i := range ups {
				ups[i] = toServeUpdate(ms.Next())
			}
			stream = append(stream, ups)
		}
		extra = toServeUpdate(ms.NextValid())
		want = memCoresAfter(t, base, stream)
	}()

	baseline := liveHeap()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(baseline) + 32<<20))

	fs := &createHookFS{FS: faultfs.OS}
	fs.hook = func(name string) {
		if inCheckpointTmp(name, "MANIFEST") {
			atCheckpoint = int64(liveHeap()) - int64(baseline)
		}
	}
	reg := engine.NewRegistry(&engine.Options{
		// 129 edits fill the update buffer, so the stream lands several
		// fold-backs of the live tables on either backend.
		Open:       kcore.OpenOptions{BlockSize: 512, BufferArcs: 256},
		Durability: &engine.DurabilityOptions{Dir: t.TempDir(), Policy: wal.SyncNever, FS: fs},
	})
	defer reg.Close()
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	adjBytes = eng.Snapshot().NumEdges * 8 // arcs * 4 bytes
	if budget := int64(16 * 512); adjBytes < 4*budget {
		t.Fatalf("fixture adjacency %d B is under 4x the %d B cache budget", adjBytes, budget)
	}
	for r, ups := range stream {
		if err := eng.Apply(ups...); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(eng.Snapshot().Cores(), want[r]) {
			t.Fatalf("k=%d: cores differ from the mem oracle after round %d", k, r)
		}
	}

	if rep := eng.Report(); rep.Disk != nil && rep.Disk.Merges == 0 {
		t.Errorf("k=%d: %d updates against a %d-arc buffer merged nothing: %+v", k, rounds*perRound, rep.Disk.OverlayLimit, rep.Disk)
	}
	// The last fill's checkpoint may be streaming, or may hold the final
	// LSN already: one checkpoint waits for it, and one more record gives
	// the measured checkpoint something to write — the loop's, if that
	// record fills the buffer, or the explicit one.
	cp := eng.(engine.Checkpointer)
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := *eng.Report().Durability
	fs.armed.Store(true)
	if err := eng.Apply(extra); err != nil {
		t.Fatal(err)
	}
	ioBefore, foldBacks := eng.Report().IO, engine.GraphOf(eng).FoldBacks()
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(false)
	st := *eng.Report().Durability
	if st.Checkpoints != before.Checkpoints+1 || st.CheckpointLastMs <= 0 {
		t.Errorf("k=%d: checkpoint not accounted: %+v", k, st)
	}
	if st.CheckpointBlockReads <= before.CheckpointBlockReads {
		t.Errorf("k=%d: a streamed checkpoint read no blocks: %+v", k, st)
	}
	// An adopting checkpoint reopens the tables through the engine's own
	// reader (on disk that reads their sidecar); the stream never is.
	if io := eng.Report().IO; io.Reads != ioBefore.Reads && engine.GraphOf(eng).FoldBacks() == foldBacks {
		t.Errorf("k=%d: the checkpoint charged %d block reads to the engine's io counter", k, io.Reads-ioBefore.Reads)
	}
	if atCheckpoint == 0 {
		t.Fatalf("k=%d: the checkpoint never created its MANIFEST through the hooked FS", k)
	}
	return int64(liveHeap()) - int64(baseline), atCheckpoint, adjBytes
}

// TestDurableMemoryIndependentOfEdges extends the disk backend's
// memory-budget oracle harness to the durable shell, on both backends.
// Two graphs with the same n, one with four times the edges, are served
// with the same cache and update-buffer budget under a pinned memory
// limit; what the engine holds afterwards, and at the fullest moment of a
// checkpoint, may differ between them only by a fixed slack that is a
// fraction of the extra adjacency. Resident state is O(n + cache +
// buffer): an adjacency mirror, a clone of one, or any other O(m)
// structure fails this.
func TestDurableMemoryIndependentOfEdges(t *testing.T) {
	const (
		scale = 13 // n = 8192 for both
		k     = 4  // edge factor; RMAT repeats edges, so 4k gives somewhat under 4m
		slack = 128 << 10
	)
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			seed := testutil.Seed(t, 47)
			after1, ckpt1, adj1 := durableHeap(t, backend, scale, k, seed)
			after4, ckpt4, adj4 := durableHeap(t, backend, scale, 4*k, seed)
			t.Logf("live heap over baseline: %d B (%d B mid-checkpoint) at %d B of adjacency, %d B (%d B mid-checkpoint) at %d B",
				after1, ckpt1, adj1, after4, ckpt4, adj4)
			if adj4 < 3*adj1 || adj4-adj1 < 4*slack {
				t.Fatalf("fixtures hold %d and %d B of adjacency: want 3-4x, and a difference well above the %d B slack", adj1, adj4, slack)
			}
			if d := after4 - after1; d > slack || d < -slack {
				t.Errorf("resident heap differs by %d B between m and 4m (slack %d): the durable engine holds O(m) state", d, slack)
			}
			if d := ckpt4 - ckpt1; d > slack || d < -slack {
				t.Errorf("mid-checkpoint heap differs by %d B between m and 4m (slack %d): the checkpoint materialises O(m) state", d, slack)
			}
		})
	}
}

// parked is a durable graph whose first fill-triggered checkpoint is
// parked right after its capture, before the first table byte is
// written.
type parked struct {
	eng     engine.Engine
	dataDir string
	pinned  int // the updates applied when the checkpoint pinned: its LSN
	// release lets the checkpoint go and waits until it has committed and,
	// where it may, been adopted.
	release func()
}

// parkFill serves base behind a durable registry with a fill of fill
// arcs and one update per record, applies ups one at a time until the
// buffer passes the fill, and waits for the checkpoint that triggers to
// be parked.
func parkFill(t *testing.T, backend, base string, fill int, ups []serve.Update) *parked {
	t.Helper()
	reached, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(gate) }) }
	fs := &createHookFS{FS: faultfs.OS}
	fs.hook = func(name string) {
		if inCheckpointTmp(name, "graph.nt") {
			parkOnce.Do(func() {
				close(reached)
				<-gate
			})
		}
	}
	p := &parked{dataDir: t.TempDir()}
	reg := engine.NewRegistry(&engine.Options{
		Serve:      serve.Options{MaxBatch: 1}, // one update per record: LSN == updates applied
		Open:       kcore.OpenOptions{BlockSize: 512, BufferArcs: fill},
		Durability: &engine.DurabilityOptions{Dir: p.dataDir, Policy: wal.SyncAlways, FS: fs},
	})
	t.Cleanup(func() {
		open() // a test that failed while parked must still close
		reg.Close()
	})
	var err error
	if p.eng, err = reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 8}); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true) // past the opening checkpoint: the next one is the fill's
	for engine.GraphOf(p.eng).BufferedArcs() <= fill {
		if p.pinned == len(ups) {
			t.Fatalf("fixture: %d updates never filled a %d-arc buffer", len(ups), fill)
		}
		if err := p.eng.Apply(ups[p.pinned]); err != nil {
			t.Fatal(err)
		}
		p.pinned++
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("the full buffer triggered no checkpoint")
	}
	p.release = func() {
		open()
		// A checkpoint waits for the parked one, adoption included.
		if err := p.eng.(engine.Checkpointer).Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// sameTables reports whether the tables at path prefixes a and b are the
// same files.
func sameTables(t *testing.T, a, b string) bool {
	t.Helper()
	for _, ext := range []string{".nt", ".et"} {
		fa, err := os.Stat(a + ext)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.Stat(b + ext)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fa, fb) {
			return false
		}
	}
	return true
}

// TestCheckpointStreamsUnderWrites parks the checkpoint a full buffer
// triggers right after its capture, before the first table byte is
// written, and keeps writing: every update is acked while it is parked,
// and the tables it is about to stream are replaced under it — the
// buffer passes its hard bound, twice the fill, and is folded back in
// place on the writer, on either backend. Released, the checkpoint must
// describe exactly the state at its manifest LSN — the LSN of the
// capture, not of the later writes — with matching stored cores; it is
// not adopted, since the tables it was pinned on are gone; and the later
// writes must still be in the WAL behind it.
func TestCheckpointStreamsUnderWrites(t *testing.T) {
	const n, fill, during = 300, 16, 60
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			seed := testutil.Seed(t, 59)
			base, edges := testutil.WriteSocial(t, n, seed)
			stream := testutil.NewMutationStream(n, seed+1, edges)
			ups := make([]serve.Update, 200)
			for i := range ups {
				ups[i] = toServeUpdate(stream.NextValid())
			}
			p := parkFill(t, backend, base, fill, ups)
			ups = ups[:p.pinned+during]
			for _, up := range ups[p.pinned:] {
				if err := p.eng.Apply(up); err != nil {
					t.Fatal(err)
				}
			}
			if st := p.eng.Report().Durability; st.InplaceFoldbacks == 0 {
				t.Fatalf("nothing folded the buffer back in place under the parked checkpoint: %+v", st)
			}
			p.release()
			oracle := memCoresAfter(t, base, [][]serve.Update{ups[:p.pinned], ups[p.pinned:]})

			// The parked checkpoint is the second; the release's, at the
			// last LSN, the third. Without the third, recovery takes the
			// second and the WAL behind it.
			dir := filepath.Join(p.dataDir, "g")
			second := filepath.Join(dir, "ckpt", "0000000000000002")
			if sameTables(t, wal.LiveBase(dir), wal.CheckpointBase(second)) {
				t.Error("the graph adopted a checkpoint pinned on tables it had since rewritten")
			}
			img := t.TempDir()
			copyTree(t, dir, img)
			if err := os.RemoveAll(filepath.Join(img, "ckpt", "0000000000000003")); err != nil {
				t.Fatal(err)
			}
			sc, err := wal.Scan(nil, img, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Manifest.LSN != uint64(p.pinned) || !sc.Manifest.HasCores {
				t.Fatalf("checkpoint manifest: LSN %d, has_cores %v; want the capture's %d with its cores", sc.Manifest.LSN, sc.Manifest.HasCores, p.pinned)
			}
			if len(sc.Records) != during {
				t.Errorf("%d WAL records behind the checkpoint, want the %d acked while it streamed", len(sc.Records), during)
			}
			if !slices.Equal(sc.Cores, oracle[0]) {
				t.Error("the checkpoint's stored cores differ from the oracle at its manifest LSN")
			}
			if got := memCoresAfter(t, wal.CheckpointBase(sc.Path), [][]serve.Update{nil}); !slices.Equal(got[0], oracle[0]) {
				t.Error("the checkpoint's adjacency does not decompose to the oracle at its manifest LSN")
			}
			if !slices.Equal(p.eng.Snapshot().Cores(), oracle[1]) {
				t.Error("served cores differ from the oracle after the writes made under the checkpoint")
			}
		})
	}
}

// TestParkedFoldBackIsAdopted: the fold-back of a durable graph is the
// checkpoint its full buffer triggers, streamed off the writer. Parked
// before its first table byte, it holds nothing up: every flush made
// meanwhile publishes its epoch and acks its Sync, cores bit-identical to
// IMCore's. Released, it commits and is adopted: live/ is the
// checkpoint's tables, the graph has folded back exactly once
// (disk.merges on the disk backend), the buffer holds exactly the edits
// made since the pin, and nothing was rewritten in place.
func TestParkedFoldBackIsAdopted(t *testing.T) {
	const n, seed, fill, during = 120, 43, 64, 10
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			base := writeGraph(t, n, seed)
			ups := freshEdges(n, seed, 100) // inserts: each buffers two arcs
			p := parkFill(t, backend, base, fill, ups)
			g := engine.GraphOf(p.eng)
			if p.pinned != fill/2+1 || g.FoldBacks() != 0 {
				t.Fatalf("fixture: pinned after %d inserts with %d fold-backs, want %d and none", p.pinned, g.FoldBacks(), fill/2+1)
			}
			edges := gen.Social(n, 3, 8, 8, seed)
			check := func(applied int) {
				t.Helper()
				all := slices.Clone(edges)
				for _, up := range ups[:applied] {
					all = append(all, graph.Edge{U: up.U, V: up.V})
				}
				if err := verify.CheckAgainst(gen.Build(all), p.eng.Snapshot().Cores()); err != nil {
					t.Fatalf("after %d inserts: %v", applied, err)
				}
			}
			for i := p.pinned; i < p.pinned+during; i++ {
				seq := p.eng.Snapshot().Seq
				if err := p.eng.Apply(ups[i]); err != nil {
					t.Fatal(err)
				}
				if got := p.eng.Snapshot().Seq; got != seq+1 {
					t.Fatalf("a flush under the parked fold-back moved the epoch %d -> %d", seq, got)
				}
				check(i + 1)
			}
			p.release()
			if got := g.FoldBacks(); got != 1 {
				t.Errorf("%d fold-backs after the release, want the one adoption", got)
			}
			if d := p.eng.Report().Disk; d != nil && (d.Merges != 1 || d.OverlayLimit != fill) {
				t.Errorf("disk block %+v, want one merge and the configured %d-arc fill", d, fill)
			}
			if got := g.BufferedArcs(); got != 2*during {
				t.Errorf("%d arcs buffered after the adoption, want the %d of the inserts made since the pin", got, 2*during)
			}
			if st := p.eng.Report().Durability; st.InplaceFoldbacks != 0 {
				t.Errorf("%d in-place fold-backs under a buffer that never reached its bound", st.InplaceFoldbacks)
			}
			dir := filepath.Join(p.dataDir, "g")
			if !sameTables(t, wal.LiveBase(dir), wal.CheckpointBase(filepath.Join(dir, "ckpt", "0000000000000002"))) {
				t.Error("live/ is not the adopted checkpoint's tables")
			}
			check(p.pinned + during)
		})
	}
}

// TestMemCheckpointRejectsCorruptTable: the view a checkpoint streams,
// on either backend, checks the live tables against their header's
// CRC32C, so a table damaged under the running graph — here a neighbour
// id changed to one every structural check accepts — fails the
// checkpoint instead of being copied, the checkpoints already committed
// stay the newest valid ones, and they plus the WAL tail still recover
// every acked update. Each committed checkpoint carries its cores.
//
// That holds while live/ is a copy (copied, the first open's). Once the
// graph has adopted a checkpoint (adopted: a one-arc fill, so every
// update fills the buffer), live/ and the newest checkpoint share their
// files, and the same damage lands in both: recovery finds the newest
// checkpoint damaged, falls back to the older one and replays the WAL
// from there — every acked update still comes back.
func TestMemCheckpointRejectsCorruptTable(t *testing.T) {
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			t.Run("copied", func(t *testing.T) { testCheckpointRejectsCorruptTable(t, backend, 0) })
			t.Run("adopted", func(t *testing.T) { testCheckpointRejectsCorruptTable(t, backend, 1) })
		})
	}
}

func testCheckpointRejectsCorruptTable(t *testing.T, backend string, fill int) {
	const n = 6
	base := testutil.WriteEdges(t, n, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	ups := []serve.Update{{Op: serve.OpInsert, U: 1, V: 3}, {Op: serve.OpDelete, U: 3, V: 4}, {Op: serve.OpInsert, U: 4, V: 5}}
	want := memCoresAfter(t, base, [][]serve.Update{ups})[0]

	dataDir := t.TempDir()
	opts := durableOptions(dataDir)
	opts.Open.BufferArcs = fill
	reg := engine.NewRegistry(opts)
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp := eng.(engine.Checkpointer)
	for i, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
		// Copied: one checkpoint, after the first update. Adopted: one
		// after each, which waits for the one its fill triggered; either
		// pins past the fill, and is adopted.
		if i == 0 || fill > 0 {
			if err := cp.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := wal.LiveBase(filepath.Join(dataDir, "g"))
	if fill > 0 {
		sc, err := wal.Scan(nil, filepath.Join(dataDir, "g"), nil)
		if err != nil || sc.Manifest.LSN != 3 || !sameTables(t, live, wal.CheckpointBase(sc.Path)) {
			t.Fatalf("fixture: %v; want live/ to be the newest checkpoint's tables, at LSN 3", err)
		}
	}

	// nbr(0) = [1 2] opens the edge table as one Rice byte (k = 0: bits
	// 0, 1 then 1, 0b110); make it [0 1] (1 then 1, 0b011), in place.
	et, err := os.OpenFile(live+".et", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0}
	if _, err := et.ReadAt(b, 0); err != nil || b[0] != 0b110 {
		t.Fatalf("fixture: the edge table opens with %#b (%v), want nbr(0) = [1 2] as 0b110", b[0], err)
	}
	if _, err := et.WriteAt([]byte{0b011}, 0); err != nil {
		t.Fatal(err)
	}
	et.Close()
	if fill == 0 {
		if err := cp.Checkpoint(); err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("checkpoint over a corrupted live table: %v, want its checksum mismatch", err)
		}
	}
	reg.Close() //nolint:errcheck // the final checkpoint fails the same way

	mans, err := filepath.Glob(filepath.Join(dataDir, "g", "ckpt", "*", "MANIFEST"))
	if err != nil || len(mans) != 2 {
		t.Fatalf("manifests %v, %v; want the two retained checkpoints'", mans, err)
	}
	for _, path := range mans {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if man, err := wal.ParseManifest(data); err != nil || !man.HasCores {
			t.Fatalf("%s: %+v, %v; want a checkpoint that carries its cores", path, man, err)
		}
	}
	reg2 := engine.NewRegistry(durableOptions(dataDir))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery: %v, %+v", err, rep)
	}
	// Copied: the newest checkpoint, at 1, is untouched and 2 records
	// follow it. Adopted: the bring-up refuses the newest, at 3, and
	// recovery falls back to the older one and replays up to 3.
	gr := rep.Graphs[0]
	if fill == 0 && (gr.Fallback || gr.Replayed != 2) {
		t.Fatalf("recovery: fallback %v, %d records replayed; want the untouched checkpoint at 1 and 2 records", gr.Fallback, gr.Replayed)
	}
	if fill > 0 && (!gr.Fallback || gr.Replayed < 1 || !strings.Contains(gr.Reason, "checkpoint ")) {
		t.Fatalf("recovery: fallback %v (%q), %d records replayed; want the older checkpoint and the records up to 3", gr.Fallback, gr.Reason, gr.Replayed)
	}
	eng2, _ := reg2.Get("g")
	if !slices.Equal(eng2.Snapshot().Cores(), want) || durStats(t, eng2).LSN != 3 {
		t.Errorf("recovered at LSN %d; want the oracle's cores over every acked update, at 3", durStats(t, eng2).LSN)
	}
}

// TestNodeTableIsReadOnce: a graph reads its node table once, into the
// node index its first use builds, held to its checksums; a fold-back or
// a checkpoint writes every node record from that index and every list
// from edge blocks held to theirs, and reads the node table never. So a
// byte of it damaged after the index is built is never read, and never
// copied either: a plain graph's Flush succeeds and renames clean tables
// over the damaged ones; a durable graph (a fill of 8 arcs, so the
// updates pass its hard bound of 16 several times) takes every update,
// commits the checkpoints its fills trigger and serves the oracle's
// cores, and a restart recovers from its newest checkpoint with no
// fallback, as does a reopen of the plain graph. Damage to a node table a
// checkpoint shares is caught by that checkpoint's bring-up instead
// (TestMemCheckpointRejectsCorruptTable's adopted legs).
func TestNodeTableIsReadOnce(t *testing.T) {
	const n = 300
	t.Run("plain", func(t *testing.T) {
		base := writeGraph(t, n, 5)
		ups := freshEdges(n, 5, 40)
		want := memCoresAfter(t, base, [][]serve.Update{ups})[0]
		g, err := kcore.Open(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		res, err := kcore.Decompose(g, nil) // builds the index
		if err != nil {
			t.Fatal(err)
		}
		m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, base+".nt")
		for _, up := range ups {
			if _, err := m.InsertEdge(up.U, up.V); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Flush(); err != nil {
			t.Fatalf("Flush over a node table damaged after the index was built: %v", err)
		}
		if !slices.Equal(m.Cores(), want) {
			t.Error("the maintained cores differ from the oracle's")
		}
		again, err := kcore.Open(base, nil)
		if err != nil {
			t.Fatalf("reopening the flushed tables: %v", err)
		}
		defer again.Close()
		if res, err := kcore.Decompose(again, nil); err != nil || !slices.Equal(res.Core, want) {
			t.Fatalf("the flushed tables decompose to the oracle's cores: %v", err)
		}
	})
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run("durable/"+backend, func(t *testing.T) {
			base := writeGraph(t, n, 6)
			ups := freshEdges(n, 6, 40)
			want := memCoresAfter(t, base, [][]serve.Update{ups})[0]
			dataDir := t.TempDir()
			opts := durableOptions(dataDir)
			opts.Open.BufferArcs = 8
			reg := engine.NewRegistry(opts)
			eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 2})
			if err != nil {
				reg.Close()
				t.Fatal(err)
			}
			flipByte(t, wal.LiveBase(filepath.Join(dataDir, "g"))+".nt") // a copy of base's: no checkpoint shares it
			for _, up := range ups {
				if err := eng.Apply(up); err != nil {
					reg.Close()
					t.Fatalf("update %+v over a node table damaged after the index was built: %v", up, err)
				}
			}
			if err := eng.Sync(); err != nil {
				reg.Close()
				t.Fatal(err)
			}
			if d := durStats(t, eng); d.Checkpoints < 2 || d.Degraded {
				t.Errorf("%d checkpoints (degraded %v), want the opening one and the fills'", d.Checkpoints, d.Degraded)
			}
			if !slices.Equal(eng.Snapshot().Cores(), want) {
				t.Error("the served cores differ from the oracle's")
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := engine.NewRegistry(durableOptions(dataDir))
			defer reg2.Close()
			rep, err := reg2.Recover()
			if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded || rep.Graphs[0].Fallback {
				t.Fatalf("recovery: %v, %+v; want the newest checkpoint, no fallback", err, rep)
			}
			eng2, _ := reg2.Get("g")
			if !slices.Equal(eng2.Snapshot().Cores(), want) {
				t.Error("the recovered cores differ from the oracle's")
			}
		})
	}
}

// TestDamagedLiveAfterRestartsFallsBack: a restart serves live/ as hard
// links to the checkpoint it recovers from, so damage to the served
// tables is damage to that checkpoint. The log behind the older retained
// checkpoint must therefore outlive every recovery, the ones that replay
// a tail and commit a checkpoint of their own included, and what a crash
// tore must not end up in the middle of the log. Schedule: a checkpoint
// at LSN 1, two more acked updates, a crash that tears a third append; a
// recovery that replays both and checkpoints at 3, one more acked update,
// a crash; a recovery that replays it and checkpoints at 4; a clean
// restart with nothing to replay; then a byte of live/graph.et flipped.
// The last recovery finds its newest checkpoint damaged, falls back to the
// one at 3 and replays 4 from the log: every acked update is back.
func TestDamagedLiveAfterRestartsFallsBack(t *testing.T) {
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			const n = 6
			base := testutil.WriteEdges(t, n, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
			ups := []serve.Update{{Op: serve.OpInsert, U: 1, V: 3}, {Op: serve.OpDelete, U: 3, V: 4}, {Op: serve.OpInsert, U: 4, V: 5}, {Op: serve.OpInsert, U: 0, V: 5}}
			want := memCoresAfter(t, base, [][]serve.Update{ups})[0]

			// life runs the graph in dir — opened from base, or recovered with
			// replayed records — applies ups, and crashes into a copy of dir
			// (a clean close when crash is false).
			life := func(dir string, replayed int64, ups []serve.Update, crash bool) string {
				t.Helper()
				reg := engine.NewRegistry(durableOptions(dir))
				defer reg.Close()
				var eng engine.Engine
				if replayed < 0 {
					var err error
					if eng, err = reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 2}); err != nil {
						t.Fatal(err)
					}
				} else {
					rep, err := reg.Recover()
					if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded || rep.Graphs[0].Replayed != replayed {
						t.Fatalf("recovery: %v, %+v; want %d records replayed", err, rep, replayed)
					}
					eng, _ = reg.Get("g")
				}
				for i, up := range ups {
					if err := eng.Apply(up); err != nil {
						t.Fatal(err)
					}
					if replayed < 0 && i == 0 {
						if err := eng.(engine.Checkpointer).Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !crash {
					if !slices.Equal(eng.Snapshot().Cores(), want) {
						t.Fatal("recovered cores differ from the oracle over every acked update")
					}
					return dir
				}
				img := t.TempDir()
				copyTree(t, dir, img)
				return img
			}
			img := life(t.TempDir(), -1, ups[:3], true)
			segs, err := filepath.Glob(filepath.Join(img, "g", "wal", "s0", "*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments %v, %v", segs, err)
			}
			f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{9, 0, 0, 0, 1}); err != nil { // the torn append
				t.Fatal(err)
			}
			f.Close()
			img = life(img, 2, ups[3:], true)
			life(life(img, 1, nil, false), 0, nil, false)
			et, err := os.OpenFile(wal.LiveBase(filepath.Join(img, "g"))+".et", os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := et.WriteAt([]byte{3, 0, 0, 0}, 4); err != nil { // nbr(0) = [1 2 5] becomes [1 3 5]
				t.Fatal(err)
			}
			et.Close()
			life(img, 1, nil, false)
		})
	}
}
