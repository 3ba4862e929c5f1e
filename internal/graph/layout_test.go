package graph_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// layoutSources builds one generated graph with Build, which lays it out
// in a peeling order, and opens it as the counted disk
// tables and as a dynamic graph over a copy of them, beside the
// in-memory CSR of the same edges.
func layoutSources(t *testing.T) (csr *memgraph.CSR, disk *storage.Graph, dyn *dyngraph.Graph, dynBase string) {
	t.Helper()
	edges := gen.RMAT(9, 6, .57, .19, .19, 41)
	csr = gen.Build(edges)
	dir := t.TempDir()
	base := filepath.Join(dir, "g")
	if err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: csr.NumNodes()}); err != nil {
		t.Fatal(err)
	}
	if m, err := storage.ReadMeta(base); err != nil || m.Version != storage.FormatVersion || m.IDOrder {
		t.Fatalf("Build wrote %+v (%v), want format version %d out of id order", m, err, storage.FormatVersion)
	}
	disk, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	dynBase = filepath.Join(dir, "dyn")
	if err := storage.CopyGraph(dynBase, base, false); err != nil {
		t.Fatal(err)
	}
	if dyn, err = dyngraph.Open(dynBase, stats.NewIOCounter(512), dyngraph.Options{CacheBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	return csr, disk, dyn, dynBase
}

// positions returns every node's position under s, failing unless they
// are a permutation of [0, n) and not the identity.
func positions(t *testing.T, s graph.Source) []uint32 {
	t.Helper()
	n := s.NumNodes()
	pos := make([]uint32, n)
	seen := make([]bool, n)
	identity := true
	layout := s.Positions()
	for v := range n {
		p := graph.Pos(layout, v)
		if p >= n || seen[p] {
			t.Fatalf("Pos(%d) = %d: not a permutation of [0,%d)", v, p, n)
		}
		seen[p], pos[v] = true, p
		identity = identity && p == v
	}
	if identity {
		t.Fatal("the layout is id order: the fixture tests nothing")
	}
	return pos
}

// TestBuildLayoutConformance holds the disk tables and the dynamic graph
// over a Build-written table, laid out in a peeling order, to the CSR's
// adjacency and to their own positions: a full scan visits every node
// once with its CSR list, in ascending position; a window of positions
// visits exactly the nodes Positions puts in it, in that order, want and
// a widened bound included; ScanDegrees gives each id its degree, in
// layout order; every decomposition algorithm, EMCore included, finds
// IMCore's cores; and a fold-back and a checkpoint keep the layout. The dynamic graph carries
// buffered edits throughout, which the CSR mirrors.
func TestBuildLayoutConformance(t *testing.T) {
	csr, disk, dyn, dynBase := layoutSources(t)
	n := csr.NumNodes()
	// Edit the dynamic graph: delete every fifth edge, insert absent ones.
	r := rand.New(rand.NewSource(7))
	edges := csr.EdgeList()
	var live []graph.Edge
	for i, e := range edges {
		if i%5 == 0 {
			if err := dyn.DeleteEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			continue
		}
		live = append(live, e)
	}
	for added := 0; added < 60; {
		u, v := uint32(r.Intn(int(n))), uint32(r.Intn(int(n)))
		if u == v || slices.Contains(csr.Neighbors(u), v) {
			continue
		}
		if err := dyn.InsertEdge(u, v); err == nil {
			live = append(live, graph.Edge{U: u, V: v})
			added++
		}
	}
	edited, err := memgraph.FromEdges(n, live)
	if err != nil {
		t.Fatal(err)
	}

	for _, src := range []struct {
		name string
		s    graph.Source
		ref  *memgraph.CSR
	}{{"disk", disk, csr}, {"dyn", dyn, edited}} {
		t.Run(src.name, func(t *testing.T) {
			s, ref := src.s, src.ref
			pos := positions(t, s)
			// scan collects the visits of the window [pmin, pmax], widened
			// to widen once the scan reaches position at.
			scan := func(pmin, pmax uint32, want func(uint32) bool, at, widen uint32) []uint32 {
				var out []uint32
				cur := pmax
				err := s.ScanDynamic(pmin, func() uint32 { return cur }, want, func(v uint32, nbrs []uint32) error {
					if got, wantL := fmt.Sprint(nbrs), fmt.Sprint(ref.Neighbors(v)); got != wantL {
						t.Fatalf("node %d: list %s, the CSR's %s", v, got, wantL)
					}
					if pos[v] == at {
						cur = widen
					}
					out = append(out, v)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			// expect lists the nodes of positions [pmin, pmax] want selects,
			// by position.
			expect := func(pmin, pmax uint32, want func(uint32) bool) []uint32 {
				var out []uint32
				for v := range n {
					if pos[v] >= pmin && pos[v] <= pmax && (want == nil || want(v)) {
						out = append(out, v)
					}
				}
				slices.SortFunc(out, func(a, b uint32) int { return int(pos[a]) - int(pos[b]) })
				return out
			}
			if got := scan(0, n-1, nil, n, 0); !slices.Equal(got, expect(0, n-1, nil)) {
				t.Fatalf("the full scan visited %d nodes out of layout order", len(got))
			}
			odd := func(v uint32) bool { return v%2 == 1 }
			for _, w := range [][2]uint32{{0, 0}, {3, 40}, {n / 2, n - 1}, {n - 1, n - 1}} {
				if got, want := scan(w[0], w[1], odd, n, 0), expect(w[0], w[1], odd); !slices.Equal(got, want) {
					t.Fatalf("window %v visited %v, want %v", w, got, want)
				}
			}
			if got, want := scan(10, 20, nil, 15, 90), expect(10, 90, nil); !slices.Equal(got, want) {
				t.Fatalf("the widened window visited %v, want %v", got, want)
			}
			var order []uint32
			err := s.ScanDegrees(func(v, d uint32) error {
				if d != ref.Degree(v) {
					t.Fatalf("ScanDegrees: deg(%d) = %d, the CSR's %d", v, d, ref.Degree(v))
				}
				order = append(order, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(order, expect(0, n-1, nil)) {
				t.Fatal("ScanDegrees streamed out of layout order")
			}
			want := imcore.Decompose(ref, nil).Core
			for _, algo := range []func(graph.Source, *semicore.Options) (*semicore.Result, error){
				semicore.SemiCore, semicore.SemiCorePlus, semicore.SemiCoreStar,
			} {
				res, err := algo(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Core, want) {
					t.Fatalf("%s: cores differ from IMCore's", res.Stats.Algorithm)
				}
			}
		})
	}

	// Through the root API, every algorithm on the disk tables.
	kg, err := kcore.Open(disk.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer kg.Close()
	want := imcore.Decompose(csr, nil).Core
	for _, algo := range []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic, kcore.EMCore, kcore.IMCore} {
		res, err := kcore.Decompose(kg, &kcore.DecomposeOptions{Algorithm: algo, EMCoreMemoryArcs: 512})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Core, want) {
			t.Fatalf("%v: cores differ from IMCore's", algo)
		}
	}

	// A checkpoint (WriteGraph of a pinned view) and a fold-back keep the
	// layout, and with it a node table that names the ids.
	before := positions(t, dyn)
	layoutKept := func(what, base string) {
		t.Helper()
		g, err := storage.Open(base, stats.NewIOCounter(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if m, err := storage.ReadMeta(base); err != nil || m.Version != storage.FormatVersion || m.IDOrder {
			t.Fatalf("%s: header %+v (%v), want version %d out of id order", what, m, err, storage.FormatVersion)
		}
		if got := positions(t, g); !slices.Equal(got, before) {
			t.Fatalf("%s changed the layout", what)
		}
		res, err := semicore.SemiCoreStar(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Core, imcore.Decompose(edited, nil).Core) {
			t.Fatalf("%s: cores differ from IMCore's", what)
		}
	}
	vw, err := dyn.Pin()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	err = storage.WriteGraph(faultfs.OS, ckpt, vw, stats.NewIOCounter(0), false)
	vw.Release()
	if err != nil {
		t.Fatal(err)
	}
	layoutKept("a checkpoint", ckpt)
	if err := dyn.Compact(); err != nil {
		t.Fatal(err)
	}
	layoutKept("a fold-back", dynBase)
}
