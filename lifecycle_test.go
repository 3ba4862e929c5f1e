package kcore_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/gen"
)

// TestEndToEndLifecycle exercises the full operational story a downstream
// user runs: build from an edge stream with a tiny sort budget, decompose,
// snapshot the state, maintain through a churn that forces buffer
// compactions, flush, restart from the snapshot's lineage, and reconcile
// everything against recomputation.
func TestEndToEndLifecycle(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "g")
	edges := gen.WebGraph(9, 5, 8, 30, 777)
	err := kcore.Build(base, kcore.SliceEdges(edges), &kcore.BuildOptions{
		SortBudgetArcs: 512, // force external-sort spills
		TempDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	g, err := kcore.Open(base, &kcore.OpenOptions{BufferArcs: 128})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "state.snap")
	if err := res.Save(snap); err != nil {
		t.Fatal(err)
	}

	// Resume from snapshot (as a restarted process would).
	loaded, err := kcore.LoadResult(snap, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kmax != res.Kmax {
		t.Fatalf("snapshot kmax %d, want %d", loaded.Kmax, res.Kmax)
	}
	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: loaded})
	if err != nil {
		t.Fatal(err)
	}

	// Churn: inserts and deletes, small buffer so compactions trigger.
	r := rand.New(rand.NewSource(778))
	n := int(g.NumNodes())
	var live []kcore.Edge
	for i := 0; i < 150; i++ {
		if len(live) > 0 && r.Float64() < 0.4 {
			j := r.Intn(len(live))
			e := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := m.DeleteEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			continue
		}
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		if u == v {
			continue
		}
		if has, _ := g.HasEdge(u, v); has {
			continue
		}
		if _, err := m.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		live = append(live, kcore.Edge{U: u, V: v})
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if g.IOStats().Writes == 0 {
		t.Fatal("no write I/O despite compactions and flush")
	}

	// A batch deletion of the remaining churn edges, then reconcile.
	if len(live) > 3 {
		batch := live[:3]
		live = live[3:]
		if _, err := m.DeleteEdges(batch); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fresh.Core {
		if fresh.Core[v] != m.Cores()[v] {
			t.Fatalf("node %d: maintained %d, recomputed %d", v, m.Cores()[v], fresh.Core[v])
		}
	}

	// Snapshot of the maintained state resumes too: save the *current*
	// decomposition and reload it.
	snap2 := filepath.Join(dir, "state2.snap")
	if err := fresh.Save(snap2); err != nil {
		t.Fatal(err)
	}
	again, err := kcore.LoadResult(snap2, g)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: again})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) > 0 {
		e := live[0]
		if _, err := m2.DeleteEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
		if _, err := m2.InsertEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for v := range fresh.Core {
		if m2.Cores()[v] != fresh.Core[v] {
			t.Fatalf("resumed maintainer diverged at %d", v)
		}
	}
}

// TestBatchAPIsPublic covers DeleteEdges/InsertEdges through the public
// surface.
func TestBatchAPIsPublic(t *testing.T) {
	g := buildSample(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []kcore.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	info, err := m.DeleteEdges(batch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Algorithm != "SemiDeleteBatch*" {
		t.Fatalf("algorithm = %q", info.Algorithm)
	}
	if _, err := m.InsertEdges(batch); err != nil {
		t.Fatal(err)
	}
	// Back to the original assignment.
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	for v, w := range want {
		if m.Cores()[v] != w {
			t.Fatalf("core(v%d) = %d after round trip, want %d", v, m.Cores()[v], w)
		}
	}
	// Batch with an absent edge fails atomically.
	if _, err := m.DeleteEdges([]kcore.Edge{{U: 0, V: 1}, {U: 7, V: 8}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if has, _ := g.HasEdge(0, 1); !has {
		t.Fatal("failed batch not rolled back")
	}
}

// TestSnapshotPublicValidation covers Save/LoadResult: a SemiCore Result
// saves and reloads like any other, and LoadResult refuses a wrong-sized
// graph, a file with one byte flipped, and a KCSNAP01 file of the same
// graph (the cores-plus-counters format Save wrote before the one
// core-number file).
func TestSnapshotPublicValidation(t *testing.T) {
	g := buildSample(t)
	res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.SemiCoreBasic})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	if back, err := kcore.LoadResult(path, g); err != nil || !slices.Equal(back.Core, res.Core) || back.Kmax != res.Kmax {
		t.Fatalf("reloaded %+v, %v; saved cores %v", back, err, res.Core)
	}
	other := buildFrom(t, []kcore.Edge{{U: 0, V: 1}}, 2)
	if _, err := kcore.LoadResult(path, other); err == nil {
		t.Fatal("snapshot loaded onto wrong-sized graph")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 1 // a core number's low byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{path, filepath.Join("testdata", "sample.kcsnap01")} {
		if _, err := kcore.LoadResult(bad, g); err == nil {
			t.Fatalf("%s loaded", bad)
		}
	}
}

// TestSnapshotDeltaDedupesDirty feeds SnapshotDelta a dirty set that
// lists every node twice, plus an out-of-range id: the derived snapshot
// must hold the maintained cores and their histogram, and its Dirty must
// list each changed node exactly once.
func TestSnapshotDeltaDedupesDirty(t *testing.T) {
	g := buildSample(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Snapshot()
	if prev.Dirty() != nil {
		t.Fatalf("a snapshot taken from scratch has Dirty %v", prev.Dirty())
	}
	if _, err := m.DeleteEdge(0, 1); err != nil { // breaks the K4
		t.Fatal(err)
	}
	var changed, dirty []uint32
	for v, c := range m.Cores() {
		if c != prev.CoreAt(uint32(v)) {
			changed = append(changed, uint32(v))
		}
	}
	for range 2 {
		for v := range g.NumNodes() {
			dirty = append(dirty, v)
		}
	}
	dirty = append(dirty, g.NumNodes()+7)

	snap, copied := m.SnapshotDelta(prev, dirty)
	if len(changed) == 0 || !slices.Equal(snap.Dirty(), changed) {
		t.Fatalf("Dirty = %v, want the changed nodes %v once each", snap.Dirty(), changed)
	}
	if !slices.Equal(snap.Cores(), m.Cores()) || !slices.Equal(snap.Histogram(), kcore.CoreHistogram(m.Cores())) {
		t.Fatalf("delta snapshot cores %v histogram %v, maintained %v", snap.Cores(), snap.Histogram(), m.Cores())
	}
	if copied != 1 {
		t.Fatalf("copied %d chunks, want the one holding the changed nodes", copied)
	}
}

// TestExtractKCore materialises the 3-core of the sample graph (the K4)
// as a new on-disk graph and validates it end to end.
func TestExtractKCore(t *testing.T) {
	g := buildSample(t)
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "core3")
	members, err := g.ExtractKCore(res.Core, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("members = %v, want the K4", members)
	}
	for i, v := range []uint32{0, 1, 2, 3} {
		if members[i] != v {
			t.Fatalf("members = %v, want [0 1 2 3]", members)
		}
	}
	sub, err := kcore.Open(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.NumNodes() != 4 || sub.NumEdges() != 6 {
		t.Fatalf("subgraph n=%d m=%d, want 4/6", sub.NumNodes(), sub.NumEdges())
	}
	subRes, err := kcore.Decompose(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range subRes.Core {
		if c != 3 {
			t.Fatalf("K4 core(%d) = %d, want 3", v, c)
		}
	}
	// Mismatched core array is rejected.
	if _, err := g.ExtractKCore([]uint32{1}, 1, out+"x"); err == nil {
		t.Fatal("mismatched core array accepted")
	}
	// k=0 keeps everything.
	out0 := filepath.Join(t.TempDir(), "core0")
	all, err := g.ExtractKCore(res.Core, 0, out0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("0-core members = %d, want 9", len(all))
	}
}
