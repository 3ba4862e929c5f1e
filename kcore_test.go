package kcore_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/emcore"
	"kcore/internal/gen"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/verify"
)

// buildSample writes the paper's Fig. 1 graph to disk and opens it.
func buildSample(t *testing.T) *kcore.Graph {
	t.Helper()
	return buildFrom(t, gen.SampleGraphEdges(), 0)
}

func buildFrom(t *testing.T, edges []kcore.Edge, n uint32) *kcore.Graph {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	if err := kcore.Build(base, kcore.SliceEdges(edges), &kcore.BuildOptions{NumNodes: n}); err != nil {
		t.Fatal(err)
	}
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := buildSample(t)
	if g.NumNodes() != 9 || g.NumEdges() != 15 {
		t.Fatalf("n=%d m=%d, want 9/15", g.NumNodes(), g.NumEdges())
	}
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	for v, w := range want {
		if res.Core[v] != w {
			t.Fatalf("core(v%d) = %d, want %d", v, res.Core[v], w)
		}
	}
	if res.Kmax != 3 {
		t.Fatalf("kmax = %d, want 3", res.Kmax)
	}
	if res.Info.Algorithm != "SemiCore*" {
		t.Fatalf("default algorithm = %q", res.Info.Algorithm)
	}
	if res.Info.IO.Reads == 0 {
		t.Fatal("no read I/O recorded")
	}
	if res.Info.IO.Writes != 0 {
		t.Fatalf("decomposition wrote %d blocks, want 0", res.Info.IO.Writes)
	}
}

// TestAllAlgorithmsAgree: every algorithm gives the oracle's cores, and
// its Result, saved, loaded back and handed to a Maintainer (FromResult),
// gives IMCore's cores through a churn of inserts and deletes.
func TestAllAlgorithmsAgree(t *testing.T) {
	edges := gen.Social(400, 3, 12, 9, 201)
	mem := gen.Build(edges)
	want := verify.CoresByRepeatedRemoval(mem)
	n := mem.NumNodes()
	for _, algo := range []kcore.Algorithm{
		kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic,
		kcore.EMCore, kcore.IMCore,
	} {
		t.Run(algo.String(), func(t *testing.T) {
			g := buildFrom(t, edges, n)
			res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo, TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Core, want) {
				t.Fatalf("%v: cores differ from the oracle's", algo)
			}
			path := filepath.Join(t.TempDir(), "cores")
			if err := res.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := kcore.LoadResult(path, g)
			if err != nil {
				t.Fatal(err)
			}
			m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: loaded})
			if err != nil {
				t.Fatal(err)
			}
			update := map[testutil.Op]func(u, v uint32) (kcore.RunInfo, error){testutil.OpInsert: m.InsertEdge, testutil.OpDelete: m.DeleteEdge}
			stream := testutil.NewMutationStream(n, 202, mem.EdgeList())
			for i := 0; i <= 200; i++ {
				if i%50 == 0 {
					live, _ := memgraph.FromEdges(n, stream.Live()) // every id is < n
					if !slices.Equal(m.Cores(), imcore.Decompose(live, nil).Core) {
						t.Fatalf("%v, resumed: cores differ from IMCore's after %d updates", algo, i)
					}
				}
				mut := stream.NextValid()
				if _, err := update[mut.Op](mut.U, mut.V); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestMaintainerFlow(t *testing.T) {
	g := buildSample(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.1: inserting (v7,v8) lifts core(v8) to 2.
	if _, err := m.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if c, _ := m.CoreOf(8); c != 2 {
		t.Fatalf("core(v8) = %d after insert, want 2", c)
	}
	if _, err := m.DeleteEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if c, _ := m.CoreOf(8); c != 1 {
		t.Fatalf("core(v8) = %d after delete, want 1", c)
	}
	if _, err := m.InsertEdge(7, 7); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := m.DeleteEdge(7, 8); err == nil {
		t.Fatal("absent delete accepted")
	}
	if _, err := m.CoreOf(99); err == nil {
		t.Fatal("out-of-range CoreOf accepted")
	}
}

// TestMaintainerFromResult: a SemiCore* Result hands its counters over,
// and any other Result, here SemiCore's, seeds SemiCore* with its cores.
// On two copies of the graph both maintainers start from SemiCore*'s
// cores, and Example 2.1's insert lifts core(v8) to 2 in both.
func TestMaintainerFromResult(t *testing.T) {
	for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCoreBasic} {
		g := buildSample(t)
		res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}; !slices.Equal(m.Cores(), want) {
			t.Fatalf("%v: maintainer starts from %v, want %v", algo, m.Cores(), want)
		}
		if _, err := m.InsertEdge(7, 8); err != nil {
			t.Fatal(err)
		}
		if want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 2}; !slices.Equal(m.Cores(), want) {
			t.Fatalf("%v: after the insert %v, want %v", algo, m.Cores(), want)
		}
	}
}

func TestMaintainerTwoPhaseVariant(t *testing.T) {
	edges := gen.BarabasiAlbert(150, 3, 203)
	mem := gen.Build(edges)
	g := buildFrom(t, edges, mem.NumNodes())
	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{Insert: kcore.SemiInsertTwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(204))
	for i := 0; i < 20; i++ {
		u := uint32(r.Intn(150))
		v := uint32(r.Intn(150))
		if u == v {
			continue
		}
		if has, _ := g.HasEdge(u, v); has {
			continue
		}
		info, err := m.InsertEdge(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if info.Algorithm != "SemiInsert" {
			t.Fatalf("algorithm = %q, want SemiInsert", info.Algorithm)
		}
	}
}

// TestInsertEdgesErrorKeepsPrefixStats: InsertEdges is not atomic — the
// edges before a failing one stay applied — and the RunInfo it returns
// with the error is that applied prefix's work, on both insertion
// algorithms, its reads pinned exactly. The graph's edge table is 3.5
// times the 16 frames of 512 bytes it is read through (its 4-byte table,
// 63,192 bytes, was 1.9 times the default frames), so inserting two
// edges reads blocks.
func TestInsertEdgesErrorKeepsPrefixStats(t *testing.T) {
	edges := gen.BarabasiAlbert(2000, 4, 205)
	base := filepath.Join(t.TempDir(), "g")
	if err := kcore.Build(base, kcore.SliceEdges(edges), nil); err != nil {
		t.Fatal(err)
	}
	testutil.RequireSpill(t, base, 512, 16, 63192/(512*64.0))
	for _, algo := range []kcore.InsertAlgorithm{kcore.SemiInsertStar, kcore.SemiInsertTwoPhase} {
		t.Run(algo.String(), func(t *testing.T) {
			g, err := kcore.Open(base, &kcore.OpenOptions{BlockSize: 512, CacheBlocks: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{Insert: algo})
			if err != nil {
				t.Fatal(err)
			}
			a, b := kcore.Edge{U: 0, V: 1999}, kcore.Edge{U: 1, V: 1998}
			for _, e := range []kcore.Edge{a, b} {
				if has, _ := g.HasEdge(e.U, e.V); has {
					t.Fatalf("fixture: %v is already an edge", e)
				}
			}
			info, err := m.InsertEdges([]kcore.Edge{a, b, a})
			if err == nil {
				t.Fatal("a batch re-inserting its own first edge was accepted")
			}
			if info.NodeComputations == 0 {
				t.Fatalf("the applied prefix's work is missing from the error's RunInfo: %+v", info)
			}
			pins.Check(t, "reads", info.IO.Reads)
			for _, e := range []kcore.Edge{a, b} {
				if has, _ := g.HasEdge(e.U, e.V); !has {
					t.Fatalf("prefix edge %v not applied", e)
				}
			}
		})
	}
}

func TestQueries(t *testing.T) {
	core := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	if kcore.Degeneracy(core) != 3 {
		t.Fatal("degeneracy")
	}
	if got := kcore.KCoreNodes(core, 3); fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("3-core nodes = %v", got)
	}
	if got := kcore.KCoreNodes(core, 0); len(got) != 9 {
		t.Fatalf("0-core nodes = %v", got)
	}
	h := kcore.CoreHistogram(core)
	if fmt.Sprint(h) != "[0 1 4 4]" {
		t.Fatalf("histogram = %v", h)
	}
	s := kcore.CoreSizes(core)
	if fmt.Sprint(s) != "[9 9 8 4]" {
		t.Fatalf("sizes = %v", s)
	}
	order := kcore.DegeneracyOrder(core)
	if order[0] != 8 || core[order[len(order)-1]] != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := 1; i < len(order); i++ {
		if core[order[i-1]] > core[order[i]] {
			t.Fatal("order not monotone in core number")
		}
	}
}

func TestKCoreSubgraphAndDensestCore(t *testing.T) {
	g := buildSample(t)
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := g.KCoreSubgraph(res.Core, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The 3-core of Fig. 1 is the K4 on v0..v3: six edges.
	if len(edges) != 6 {
		t.Fatalf("3-core has %d edges, want 6", len(edges))
	}
	k, density, err := g.DensestCore(res.Core)
	if err != nil {
		t.Fatal(err)
	}
	// The 2-core keeps 14 of the 15 edges over 8 nodes (1.75), beating
	// both the K4 3-core (6/4 = 1.5) and the full graph (15/9).
	if k != 2 || density != 1.75 {
		t.Fatalf("densest core = %d (%.2f), want 2 (1.75)", k, density)
	}
	if _, err := g.KCoreSubgraph([]uint32{1}, 1); err == nil {
		t.Fatal("mismatched core array accepted")
	}
}

func TestFileEdgesAndFlush(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "edges.txt")
	content := "# demo\n0 1\n1 2\n2 0\n"
	if err := writeFile(txt, content); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "g")
	if err := kcore.Build(base, kcore.FileEdges(txt), nil); err != nil {
		t.Fatal(err)
	}
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertEdge(0, 2); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := m.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges after flush = %d, want 2", g.NumEdges())
	}
	if got := g.IOStats(); got.Writes == 0 {
		t.Fatal("flush performed no write I/O")
	}
}

// TestEMCoreRequiresFlush pins the guard that EMCore and IMCore see the
// materialised graph, not the overlay.
func TestEMCoreRequiresFlush(t *testing.T) {
	g := buildSample(t)
	m, err := kcore.NewMaintainer(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.EMCore}); err == nil {
		t.Fatal("EMCore ran over an unflushed buffer")
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.EMCore, TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}

	// A graph read through the block cache flushes into the same tables,
	// so once flushed the two baselines may read them, and agree.
	cg, err := kcore.Open(g.Base(), &kcore.OpenOptions{CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	cm, err := kcore.NewMaintainer(cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.DeleteEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := kcore.Decompose(cg, &kcore.DecomposeOptions{Algorithm: kcore.IMCore}); err == nil {
		t.Fatal("IMCore ran over an unflushed buffer of a cached graph")
	}
	if err := cg.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []kcore.Algorithm{kcore.EMCore, kcore.IMCore} {
		res, err := kcore.Decompose(cg, &kcore.DecomposeOptions{Algorithm: algo, TempDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%v over a flushed cached graph: %v", algo, err)
		}
		if !slices.Equal(res.Core, cm.Cores()) {
			t.Fatalf("%v = %v, maintained cores %v", algo, res.Core, cm.Cores())
		}
		if algo == kcore.EMCore {
			// Decompose charges EMCore its own I/O, as it does every
			// algorithm, not the open of the tables it re-partitions: what
			// emcore.Decompose performs after an open of its own.
			ctr := stats.NewIOCounter(0)
			sg, err := storage.Open(cg.Base(), ctr, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := ctr.Snapshot()
			_, err = emcore.Decompose(sg, emcore.Options{TempDir: t.TempDir(), IO: ctr})
			sg.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := ctr.Snapshot().Sub(before); res.Info.IO != want {
				t.Errorf("Decompose(EMCore) charged %+v, a direct run after its open %+v", res.Info.IO, want)
			}
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
