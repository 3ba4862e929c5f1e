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

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/memgraph"
	"kcore/internal/serve"
	"kcore/internal/testutil"
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
		// compactions of the live tables on either backend.
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
	before, ioBefore := *eng.Report().Durability, eng.Report().IO
	fs.armed.Store(true)
	if err := eng.(engine.Checkpointer).Checkpoint(); err != nil {
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
	if io := eng.Report().IO; io.Reads != ioBefore.Reads {
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

// TestCheckpointStreamsUnderWrites parks a checkpoint right after its
// capture, before the first table byte is written, and keeps writing:
// every update is acked while the checkpoint is parked, and the tables
// the checkpoint is about to stream are replaced under it — the small
// update buffer overflows six times, into compactions that rename new
// tables into place on either backend. Released, the checkpoint must
// describe exactly the state at its manifest LSN — the LSN of the
// capture, not of the later writes — with matching stored cores, and the
// later writes must still be in the WAL behind it.
func TestCheckpointStreamsUnderWrites(t *testing.T) {
	const (
		n              = 300
		beforeCapture  = 40
		duringSnapshot = 60
	)
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			seed := testutil.Seed(t, 59)
			base, edges := testutil.WriteSocial(t, n, seed)
			stream := testutil.NewMutationStream(n, seed+1, edges)
			ups := make([]serve.Update, beforeCapture+duringSnapshot)
			for i := range ups {
				ups[i] = toServeUpdate(stream.NextValid())
			}
			// The oracle first: a compacting mem graph rewrites base in place.
			oracle := memCoresAfter(t, base, [][]serve.Update{ups[:beforeCapture], ups[beforeCapture:]})

			reached, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			fs := &createHookFS{FS: faultfs.OS}
			fs.hook = func(name string) {
				if inCheckpointTmp(name, "graph.nt") {
					once.Do(func() {
						close(reached)
						<-release
					})
				}
			}
			dataDir := t.TempDir()
			reg := engine.NewRegistry(&engine.Options{
				Serve: serve.Options{MaxBatch: 1}, // one update per record: LSN == updates applied
				// Nine edits fill the buffer: it is non-empty at the capture and
				// is folded into the base six times under the parked checkpoint.
				Open:       kcore.OpenOptions{BlockSize: 512, BufferArcs: 16},
				Durability: &engine.DurabilityOptions{Dir: dataDir, Policy: wal.SyncAlways, FS: fs},
			})
			defer reg.Close()
			eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			apply := func(ups []serve.Update) {
				t.Helper()
				for _, up := range ups {
					if err := eng.Apply(up); err != nil {
						t.Fatal(err)
					}
				}
			}
			apply(ups[:beforeCapture])
			writesAtCapture := eng.Report().IO.Writes
			fs.armed.Store(true)
			ckptErr := make(chan error, 1)
			go func() {
				ckptErr <- eng.(engine.Checkpointer).Checkpoint()
			}()
			<-reached // captured at LSN beforeCapture, nothing streamed yet

			apply(ups[beforeCapture:])
			// Compactions are the only block writes either backend makes.
			rewritten := eng.Report().IO.Writes != writesAtCapture
			close(release)
			if !rewritten {
				t.Fatal("nothing rewrote the tables under the parked checkpoint")
			}
			if err := <-ckptErr; err != nil {
				t.Fatalf("checkpoint under writes: %v", err)
			}
			fs.armed.Store(false)

			sc, err := wal.Scan(nil, filepath.Join(dataDir, "g"))
			if err != nil {
				t.Fatal(err)
			}
			if sc.Manifest.LSN != beforeCapture || !sc.Manifest.HasCores {
				t.Fatalf("checkpoint manifest: LSN %d, has_cores %v; want the capture's %d with its cores", sc.Manifest.LSN, sc.Manifest.HasCores, beforeCapture)
			}
			if len(sc.Records) != duringSnapshot {
				t.Errorf("%d WAL records behind the checkpoint, want the %d acked while it streamed", len(sc.Records), duringSnapshot)
			}
			if !slices.Equal(sc.Cores, oracle[0]) {
				t.Error("the checkpoint's stored cores differ from the oracle at its manifest LSN")
			}
			if got := memCoresAfter(t, filepath.Join(sc.Path, "graph"), [][]serve.Update{nil}); !slices.Equal(got[0], oracle[0]) {
				t.Error("the checkpoint's adjacency does not decompose to the oracle at its manifest LSN")
			}
			if !slices.Equal(eng.Snapshot().Cores(), oracle[1]) {
				t.Error("served cores differ from the oracle after the writes made under the checkpoint")
			}
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
func TestMemCheckpointRejectsCorruptTable(t *testing.T) {
	for _, backend := range []string{engine.BackendMem, engine.BackendDisk} {
		t.Run(backend, func(t *testing.T) { testCheckpointRejectsCorruptTable(t, backend) })
	}
}

func testCheckpointRejectsCorruptTable(t *testing.T, backend string) {
	const n = 6
	base := testutil.WriteEdges(t, n, []memgraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	ups := []serve.Update{{Op: serve.OpInsert, U: 1, V: 3}, {Op: serve.OpDelete, U: 3, V: 4}, {Op: serve.OpInsert, U: 4, V: 5}}
	want := memCoresAfter(t, base, [][]serve.Update{ups})[0]

	dataDir := t.TempDir()
	reg := engine.NewRegistry(durableOptions(dataDir))
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp := eng.(engine.Checkpointer)
	if err := eng.Apply(ups[0]); err != nil {
		t.Fatal(err)
	}
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, up := range ups[1:] {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}

	// nbr(0) = [1 2] opens the edge table; make it [1 3], in place.
	et, err := os.OpenFile(wal.LiveBase(filepath.Join(dataDir, "g"))+".et", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := et.WriteAt([]byte{3, 0, 0, 0}, 4); err != nil {
		t.Fatal(err)
	}
	et.Close()
	if err := cp.Checkpoint(); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("checkpoint over a corrupted live table: %v, want its checksum mismatch", err)
	}
	reg.Close() //nolint:errcheck // the final checkpoint fails the same way

	sc, err := wal.Scan(nil, filepath.Join(dataDir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != 1 || sc.Fallback || !sc.Manifest.HasCores || len(sc.Records) != 2 {
		t.Fatalf("newest valid checkpoint: LSN %d, fallback %v, has_cores %v, %d records behind it; want the untouched one at 1 with its cores and 2 records",
			sc.Manifest.LSN, sc.Fallback, sc.Manifest.HasCores, len(sc.Records))
	}
	reg2 := engine.NewRegistry(durableOptions(dataDir))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		t.Fatalf("recovery: %v, %+v", err, rep)
	}
	eng2, _ := reg2.Get("g")
	if !slices.Equal(eng2.Snapshot().Cores(), want) {
		t.Error("recovered cores differ from the oracle over every acked update")
	}
}
