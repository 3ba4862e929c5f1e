// Conformance tests: the graph.Source implementations (in-memory CSR,
// counted disk tables, buffered dynamic graph and its pinned views) must
// be externally indistinguishable, because the semi-external algorithms
// are written against the interface and validated mostly on the fast
// backend, and storage.WriteGraph writes tables from any of them.
package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/emcore"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// sources materialises one generated graph behind all three backends.
func sources(t *testing.T) map[string]graph.Source {
	t.Helper()
	csr := gen.Build(gen.Social(200, 3, 8, 8, 601))
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, csr, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	disk, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	dyn, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	return map[string]graph.Source{"csr": csr, "disk": disk, "dyn": dyn}
}

type visit struct {
	v    uint32
	nbrs string
}

func collectScan(t *testing.T, s graph.Source, vmin, vmax uint32, want func(uint32) bool) []visit {
	t.Helper()
	var out []visit
	err := s.ScanDynamic(vmin, func() uint32 { return vmax }, want, func(v uint32, nbrs []uint32) error {
		out = append(out, visit{v, fmt.Sprint(nbrs)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSourcesAgreeOnFullScan(t *testing.T) {
	srcs := sources(t)
	ref := collectScan(t, srcs["csr"], 0, srcs["csr"].NumNodes()-1, nil)
	for name, s := range srcs {
		got := collectScan(t, s, 0, s.NumNodes()-1, nil)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d visits, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: visit %d = %+v, want %+v", name, i, got[i], ref[i])
			}
		}
	}
}

func TestSourcesAgreeOnPartialScan(t *testing.T) {
	srcs := sources(t)
	want := func(v uint32) bool { return v%7 == 3 }
	ref := collectScan(t, srcs["csr"], 10, 150, want)
	if len(ref) == 0 {
		t.Fatal("empty reference scan")
	}
	for name, s := range srcs {
		got := collectScan(t, s, 10, 150, want)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s: partial scan diverges", name)
		}
	}
}

func TestSourcesAgreeOnDynamicWindow(t *testing.T) {
	srcs := sources(t)
	runIt := func(s graph.Source) []uint32 {
		var visited []uint32
		cur := uint32(5)
		err := s.ScanDynamic(0, func() uint32 { return cur }, nil, func(v uint32, nbrs []uint32) error {
			visited = append(visited, v)
			if v == 3 {
				cur = 12 // widen mid-scan
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visited
	}
	ref := runIt(srcs["csr"])
	if len(ref) != 13 {
		t.Fatalf("reference visited %d nodes, want 13", len(ref))
	}
	for name, s := range srcs {
		if fmt.Sprint(runIt(s)) != fmt.Sprint(ref) {
			t.Fatalf("%s: dynamic window scan diverges", name)
		}
	}
}

func TestSourcesAgreeOnDegrees(t *testing.T) {
	srcs := sources(t)
	collect := func(s graph.Source) []uint32 {
		var out []uint32
		if err := s.ScanDegrees(func(v uint32, d uint32) error {
			out = append(out, d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := collect(srcs["csr"])
	for name, s := range srcs {
		got := collect(s)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s: degree scan diverges", name)
		}
	}
}

// TestWriteGraphFromEverySource writes one id-order adjacency through
// storage.WriteGraph from each kind of graph.Source — the CSR, the disk
// tables, a dynamic graph with and without buffered edits, a pinned view
// — and requires the tables to be byte-identical.
func TestWriteGraphFromEverySource(t *testing.T) {
	edges := gen.Social(200, 3, 8, 8, 601)
	csr := gen.Build(edges)
	dir := t.TempDir()
	write := func(name string, src graph.Source) string {
		t.Helper()
		base := filepath.Join(dir, name)
		if err := storage.WriteGraph(faultfs.OS, base, src, stats.NewIOCounter(0), false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return base
	}
	open := func(base string) *dyngraph.Graph {
		t.Helper()
		g, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{BufferArcs: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	tables := map[string]string{"csr": write("csr", csr)}

	disk, err := storage.Open(tables["csr"], stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tables["disk"] = write("disk", disk)
	tables["dyn"] = write("dyn", open(write("dyn-base", csr)))

	// The same adjacency as a base that lacks the first 20 edges and holds
	// 20 others, with the buffer undoing both.
	held, extra := csr.EdgeList()[:20], []graph.Edge{}
	for u := uint32(0); len(extra) < 20; u++ {
		if !csr.HasEdge(u, u+100) {
			extra = append(extra, graph.Edge{U: u, V: u + 100})
		}
	}
	other, err := memgraph.FromEdges(csr.NumNodes(), append(csr.EdgeList()[20:], extra...))
	if err != nil {
		t.Fatal(err)
	}
	dyn := open(write("edited-base", other))
	for i := range held {
		if err := dyn.InsertEdge(held[i].U, held[i].V); err != nil {
			t.Fatal(err)
		}
		if err := dyn.DeleteEdge(extra[i].U, extra[i].V); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.BufferedArcs() != 80 {
		t.Fatalf("fixture: %d buffered arcs, want 80", dyn.BufferedArcs())
	}
	tables["dyn-edited"] = write("dyn-edited", dyn)
	vw, err := dyn.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Release()
	if err := dyn.DeleteEdge(held[0].U, held[0].V); err != nil { // after the pin: not in the view
		t.Fatal(err)
	}
	tables["view"] = write("view", vw)

	for name, base := range tables {
		for _, ext := range storage.Files {
			want, err := os.ReadFile(tables["csr"] + ext)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(base + ext); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s differs from the CSR's (%v)", name, ext, err)
			}
		}
	}
}

// edgeSet tracks the live edge set of a mutating workload, supporting
// O(1) membership, random sampling and removal.
type edgeSet struct {
	list []graph.Edge
	idx  map[uint64]int
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newEdgeSet(edges []graph.Edge) *edgeSet {
	s := &edgeSet{idx: make(map[uint64]int, len(edges))}
	for _, e := range edges {
		s.add(e)
	}
	return s
}

func (s *edgeSet) has(u, v uint32) bool { _, ok := s.idx[edgeKey(u, v)]; return ok }

func (s *edgeSet) add(e graph.Edge) {
	s.idx[edgeKey(e.U, e.V)] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeSet) remove(e graph.Edge) {
	i := s.idx[edgeKey(e.U, e.V)]
	last := len(s.list) - 1
	s.list[i] = s.list[last]
	s.idx[edgeKey(s.list[i].U, s.list[i].V)] = i
	s.list = s.list[:last]
	delete(s.idx, edgeKey(e.U, e.V))
}

// mutationStep produces the next batch of the seeded workload: even steps
// delete random existing edges, odd steps insert random absent ones. The
// edge set is updated to reflect the batch.
func mutationStep(r *rand.Rand, step int, n uint32, set *edgeSet, size int) (batch []graph.Edge, isDelete bool) {
	isDelete = step%2 == 0
	if isDelete {
		for i := 0; i < size && len(set.list) > 0; i++ {
			e := set.list[r.Intn(len(set.list))]
			set.remove(e)
			batch = append(batch, e)
		}
		return batch, true
	}
	for len(batch) < size {
		u, v := uint32(r.Intn(int(n))), uint32(r.Intn(int(n)))
		if u == v || set.has(u, v) {
			continue
		}
		e := graph.Edge{U: u, V: v}
		set.add(e)
		batch = append(batch, e)
	}
	return batch, false
}

// TestAlgorithmsAgreeUnderMutation interleaves maintained batch updates
// (BatchInsert/BatchDelete, Algorithms 6-8) with full recomputation by
// IMCore, SemiCore and EMCore, asserting all four produce identical core
// arrays after every step — the maintained state must stay exact under
// arbitrary interleavings, and the three decomposition families must stay
// indistinguishable on the mutated graph.
func TestAlgorithmsAgreeUnderMutation(t *testing.T) {
	edges := gen.Social(200, 3, 8, 8, 601)
	csr := gen.Build(edges)
	n := csr.NumNodes()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, csr, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	ctr := stats.NewIOCounter(0)
	dyn, err := dyngraph.Open(base, ctr, dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	session, err := maintain.NewSession(dyn, stats.NewMemModel())
	if err != nil {
		t.Fatal(err)
	}

	set := newEdgeSet(csr.EdgeList())
	r := rand.New(rand.NewSource(77))
	for step := 0; step < 8; step++ {
		batch, isDelete := mutationStep(r, step, n, set, 12)
		if isDelete {
			_, err = session.BatchDelete(batch)
		} else {
			_, err = session.BatchInsert(batch, false)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := session.VerifyState(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		maintained := fmt.Sprint(session.Core())

		cur, err := memgraph.FromEdges(n, set.list)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(imcore.Decompose(cur, nil).Core); got != maintained {
			t.Fatalf("step %d: IMCore diverges from maintained state", step)
		}
		semi, err := semicore.SemiCore(dyn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(semi.Core); got != maintained {
			t.Fatalf("step %d: SemiCore diverges from maintained state", step)
		}
		// EMCore reads the raw tables, so flush the overlay first.
		if err := dyn.Compact(); err != nil {
			t.Fatal(err)
		}
		disk, err := storage.Open(base, ctr, nil)
		if err != nil {
			t.Fatal(err)
		}
		em, err := emcore.Decompose(disk, emcore.Options{TempDir: t.TempDir()})
		disk.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(em.Core); got != maintained {
			t.Fatalf("step %d: EMCore diverges from maintained state", step)
		}
	}
}

// TestConcurrentSessionAgreesWithRecompute drives the same seeded
// workload through serve.ConcurrentSession while concurrent readers
// hammer Snapshot, asserting after every synced step that the published
// epoch equals a from-scratch IMCore recomputation of the mutated edge
// set. Run under -race this also checks the epoch-swap publication
// discipline.
func TestConcurrentSessionAgreesWithRecompute(t *testing.T) {
	edges := gen.Social(200, 3, 8, 8, 601)
	csr := gen.Build(edges)
	n := csr.NumNodes()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, csr, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	// Every published epoch is captured so the copy-on-write snapshots
	// can be cross-checked pairwise after the workload.
	var pubMu sync.Mutex
	var published []*serve.Epoch
	sess, err := serve.New(g, &serve.Options{
		MaxBatch:      32,
		FlushInterval: time.Millisecond,
		OnPublish: func(e *serve.Epoch) {
			pubMu.Lock()
			published = append(published, e)
			pubMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Stop the readers even when an assertion below fails the test, so
	// they cannot outlive the session and bury the real failure.
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint32(0); !stop.Load(); v++ {
				snap := sess.Snapshot()
				if _, err := snap.CoreOf(v % snap.NumNodes()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	set := newEdgeSet(csr.EdgeList())
	r := rand.New(rand.NewSource(77))
	for step := 0; step < 8; step++ {
		batch, isDelete := mutationStep(r, step, n, set, 12)
		op := serve.OpInsert
		if isDelete {
			op = serve.OpDelete
		}
		ups := make([]serve.Update, len(batch))
		for i, e := range batch {
			ups[i] = serve.Update{Op: op, U: e.U, V: e.V}
		}
		if err := sess.Apply(ups...); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cur, err := memgraph.FromEdges(n, set.list)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(imcore.Decompose(cur, nil).Core)
		if got := fmt.Sprint(sess.Snapshot().Cores()); got != want {
			t.Fatalf("step %d: published epoch diverges from recomputation", step)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Dirty-set soundness across the copy-on-write epochs: for every
	// consecutive pair, the set of nodes whose core number changed must
	// be exactly the published Dirty set — no changed node may be
	// missing (or a shared chunk could hide a stale core number), and
	// the snapshot derivation filters net-unchanged nodes and repeats
	// out, so no extras or duplicates either.
	pubMu.Lock()
	defer pubMu.Unlock()
	if len(published) < 2 {
		t.Fatalf("captured %d epochs, want >= 2", len(published))
	}
	for i := 1; i < len(published); i++ {
		prev, cur := published[i-1], published[i]
		if cur.Seq != prev.Seq+1 {
			t.Fatalf("publication order broken: %d after %d", cur.Seq, prev.Seq)
		}
		dirty := make(map[uint32]struct{}, len(cur.Dirty()))
		for _, v := range cur.Dirty() {
			dirty[v] = struct{}{}
		}
		changed := 0
		prevCores, curCores := prev.Cores(), cur.Cores()
		for v := range curCores {
			if prevCores[v] == curCores[v] {
				continue
			}
			changed++
			if _, ok := dirty[uint32(v)]; !ok {
				t.Fatalf("epoch %d: core(%d) changed %d -> %d but is missing from Dirty",
					cur.Seq, v, prevCores[v], curCores[v])
			}
		}
		if changed != len(dirty) || changed != len(cur.Dirty()) {
			t.Fatalf("epoch %d: Dirty lists %d nodes (%d distinct), %d actually changed",
				cur.Seq, len(cur.Dirty()), len(dirty), changed)
		}
	}
}
