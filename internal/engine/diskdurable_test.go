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
	"kcore/internal/diskengine"
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

// durableDiskHeap runs the memory-budget scenario on an RMAT graph of
// 2^scale nodes at the given edge factor: open through a durable registry behind the
// disk backend, the standard mixed valid/invalid stream with cores
// compared against the mem oracle at every Sync, an explicit checkpoint.
// It returns the live heap the engine holds once all that is done, and
// while the checkpoint has streamed every table but not yet released
// its view — both relative to the heap before the open.
func durableDiskHeap(t *testing.T, scale, k int, seed int64) (after, atCheckpoint, adjBytes int64) {
	t.Helper()
	const rounds, perRound = 10, 100

	// Everything O(m) the test itself needs — the generator's edge list,
	// the stream's mirror, the oracle — lives and dies in this block.
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
		Open:       kcore.OpenOptions{BlockSize: 512},
		Durability: &engine.DurabilityOptions{Dir: t.TempDir(), Policy: wal.SyncNever, FS: fs},
	})
	defer reg.Close()
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: engine.BackendDisk, CacheBlocks: 16})
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

	ds, _ := engine.AsDurabilityStatser(eng)
	before, ioBefore := ds.DurabilityStats(), eng.IOStats()
	cp, _ := engine.AsCheckpointer(eng)
	fs.armed.Store(true)
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(false)
	st := ds.DurabilityStats()
	if st.Checkpoints != before.Checkpoints+1 || st.CheckpointLastMs <= 0 {
		t.Errorf("k=%d: checkpoint not accounted: %+v", k, st)
	}
	if st.CheckpointBlockReads <= before.CheckpointBlockReads {
		t.Errorf("k=%d: a streamed checkpoint read no blocks: %+v", k, st)
	}
	if io := eng.IOStats(); io.Reads != ioBefore.Reads {
		t.Errorf("k=%d: the checkpoint charged %d block reads to the engine's io counter", k, io.Reads-ioBefore.Reads)
	}
	if st.MirrorArcs != 0 {
		t.Errorf("k=%d: mirror_arcs = %d on the disk backend", k, st.MirrorArcs)
	}
	if atCheckpoint == 0 {
		t.Fatalf("k=%d: the checkpoint never created its MANIFEST through the hooked FS", k)
	}
	return int64(liveHeap()) - int64(baseline), atCheckpoint, adjBytes
}

// TestDurableDiskMemoryIndependentOfEdges extends the disk backend's
// memory-budget oracle harness to the durable shell. Two graphs with the
// same n, one with four times the edges, are served with the same cache
// and overlay budget under a pinned memory limit; what the engine holds
// afterwards, and at the fullest moment of a checkpoint, may differ
// between them only by a fixed slack that is a fraction of the extra
// adjacency. Resident state is O(n + cache + overlay): an adjacency
// mirror, a clone of one, or any other O(m) structure fails this.
func TestDurableDiskMemoryIndependentOfEdges(t *testing.T) {
	const (
		scale = 13 // n = 8192 for both
		k     = 4  // edge factor; RMAT repeats edges, so 4k gives somewhat under 4m
		slack = 128 << 10
	)
	seed := testutil.Seed(t, 47)
	after1, ckpt1, adj1 := durableDiskHeap(t, scale, k, seed)
	after4, ckpt4, adj4 := durableDiskHeap(t, scale, 4*k, seed)
	t.Logf("live heap over baseline: %d B (%d B mid-checkpoint) at %d B of adjacency, %d B (%d B mid-checkpoint) at %d B",
		after1, ckpt1, adj1, after4, ckpt4, adj4)
	if adj4 < 3*adj1 || adj4-adj1 < 4*slack {
		t.Fatalf("fixtures hold %d and %d B of adjacency: want 3-4x, and a difference well above the %d B slack", adj1, adj4, slack)
	}
	if d := after4 - after1; d > slack || d < -slack {
		t.Errorf("resident heap differs by %d B between m and 4m (slack %d): the durable disk engine holds O(m) state", d, slack)
	}
	if d := ckpt4 - ckpt1; d > slack || d < -slack {
		t.Errorf("mid-checkpoint heap differs by %d B between m and 4m (slack %d): the checkpoint materialises O(m) state", d, slack)
	}
}

// mirrorAllocs counts every heap allocation made so far with a
// wal.Mirror function on its stack, freed or not. Exact only for
// allocations made while runtime.MemProfileRate is 1.
func mirrorAllocs() int64 {
	runtime.GC() // the profile lags: it reflects the last completed cycle
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "wal.NewMirror") || strings.Contains(f.Function, "wal.(*Mirror)") {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestDurableDiskKeepsNoMirror: over a whole durable life — open,
// updates, an explicit checkpoint, clean shutdown, recovery, more of the
// same — a disk-backed graph never constructs, patches or clones a
// wal.Mirror: mirror_arcs reads 0 and the heap profile (every allocation
// sampled) gains not one allocation under a Mirror function. The mem
// backend is the control that shows both instruments can see a mirror.
func TestDurableDiskKeepsNoMirror(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const n, seed = 120, 53
	for _, backend := range []string{engine.BackendDisk, engine.BackendMem} {
		t.Run(backend, func(t *testing.T) {
			base, dataDir := writeGraph(t, n, seed), t.TempDir()
			ups := freshEdges(n, seed, 8)
			before := mirrorAllocs()

			var mirrorArcs, edges int64
			life := func(recoverFirst bool, ups []serve.Update) {
				reg := engine.NewRegistry(durableOptions(dataDir))
				defer reg.Close()
				var eng engine.Engine
				if recoverFirst {
					rep, err := reg.Recover()
					if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
						t.Fatalf("recovery: %v, %+v", err, rep)
					}
					eng, _ = reg.Get("g")
				} else {
					var err error
					if eng, err = reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 8}); err != nil {
						t.Fatal(err)
					}
				}
				for _, up := range ups {
					if err := eng.Apply(up); err != nil {
						t.Fatal(err)
					}
				}
				cp, _ := engine.AsCheckpointer(eng)
				if err := cp.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				ds, _ := engine.AsDurabilityStatser(eng)
				mirrorArcs, edges = ds.DurabilityStats().MirrorArcs, eng.Snapshot().NumEdges
			}
			life(false, ups[:4])
			life(true, ups[4:])

			grew := mirrorAllocs() - before
			if backend == engine.BackendDisk {
				if mirrorArcs != 0 || grew != 0 {
					t.Errorf("disk backend: mirror_arcs = %d, %d allocations under wal.Mirror; want none of either", mirrorArcs, grew)
				}
			} else if mirrorArcs != 2*edges || grew == 0 {
				t.Errorf("mem control: mirror_arcs = %d (want %d), %d allocations under wal.Mirror (want some) — the instruments are blind", mirrorArcs, 2*edges, grew)
			}
		})
	}
}

// TestCheckpointStreamsUnderWrites parks a disk-backed checkpoint right
// after its capture, before the first table byte is written, and keeps
// writing: every update is acked while the checkpoint is parked, and a
// forced overlay merge replaces the very partition generations the
// checkpoint is about to stream. Released, the checkpoint must describe
// exactly the state at its manifest LSN — the LSN of the capture, not of
// the later writes — with matching stored cores, the replaced
// generations must have stayed on disk for it and be gone afterwards,
// and the later writes must still be in the WAL behind it.
func TestCheckpointStreamsUnderWrites(t *testing.T) {
	const (
		n              = 300
		beforeCapture  = 40
		duringSnapshot = 60
	)
	seed := testutil.Seed(t, 59)
	base, edges := testutil.WriteSocial(t, n, seed)
	stream := testutil.NewMutationStream(n, seed+1, edges)
	ups := make([]serve.Update, beforeCapture+duringSnapshot)
	for i := range ups {
		ups[i] = toServeUpdate(stream.NextValid())
	}

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
		Serve:      serve.Options{MaxBatch: 1}, // one update per record: LSN == updates applied
		Open:       kcore.OpenOptions{BlockSize: 512},
		Durability: &engine.DurabilityOptions{Dir: dataDir, Policy: wal.SyncAlways, FS: fs},
	})
	defer reg.Close()
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: engine.BackendDisk, CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	disk := eng.(engine.Unwrapper).Unwrap().(*diskengine.Engine)
	partsOnDisk := func() []string {
		names, err := filepath.Glob(filepath.Join(dataDir, "g", "parts", "part-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
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
	pinned := partsOnDisk()
	fs.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() {
		cp, _ := engine.AsCheckpointer(eng)
		ckptErr <- cp.Checkpoint()
	}()
	<-reached // captured at LSN beforeCapture, nothing streamed yet

	apply(ups[beforeCapture : beforeCapture+duringSnapshot/2])
	var mergeErr error
	if err := disk.Do(func() { mergeErr = disk.Store().MergeOverlay() }); err != nil || mergeErr != nil {
		t.Fatalf("forced merge: %v, %v", err, mergeErr)
	}
	apply(ups[beforeCapture+duringSnapshot/2:])
	if merges := disk.DiskStats().Merges; merges < 1 {
		t.Fatalf("no overlay merge happened under the checkpoint (merges=%d)", merges)
	}
	for _, f := range pinned {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("a generation the parked checkpoint pins was unlinked: %v", err)
		}
	}
	if now := partsOnDisk(); len(now) <= len(pinned) {
		t.Fatalf("the forced merge replaced no partition generation (%d files before, %d now)", len(pinned), len(now))
	}

	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatalf("checkpoint under writes: %v", err)
	}
	fs.armed.Store(false)
	if left := partsOnDisk(); len(left) != len(pinned) {
		t.Errorf("%d partition files on disk after the view's release, want the %d current generations", len(left), len(pinned))
	}

	sc, err := wal.Scan(nil, filepath.Join(dataDir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manifest.LSN != beforeCapture {
		t.Fatalf("checkpoint manifest LSN = %d, want the capture's %d", sc.Manifest.LSN, beforeCapture)
	}
	if len(sc.Records) != duringSnapshot {
		t.Errorf("%d WAL records behind the checkpoint, want the %d acked while it streamed", len(sc.Records), duringSnapshot)
	}
	oracle := memCoresAfter(t, base, [][]serve.Update{ups[:beforeCapture], ups[beforeCapture:]})
	if !slices.Equal(sc.Cores, oracle[0]) {
		t.Error("the checkpoint's stored cores differ from the oracle at its manifest LSN")
	}
	if got := memCoresAfter(t, filepath.Join(sc.Path, "graph"), [][]serve.Update{nil}); !slices.Equal(got[0], oracle[0]) {
		t.Error("the checkpoint's adjacency does not decompose to the oracle at its manifest LSN")
	}
	if !slices.Equal(eng.Snapshot().Cores(), oracle[1]) {
		t.Error("served cores differ from the oracle after the writes made under the checkpoint")
	}
}
