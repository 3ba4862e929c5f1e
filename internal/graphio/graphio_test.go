package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/verify"
)

func csrEqual(t *testing.T, got, want *memgraph.CSR) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("n = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumArcs() != want.NumArcs() {
		t.Fatalf("arcs = %d, want %d", got.NumArcs(), want.NumArcs())
	}
	for v := uint32(0); v < want.NumNodes(); v++ {
		a, b := got.Neighbors(v), want.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("nbr(%d) = %v, want %v", v, a, b)
		}
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("nbr(%d) = %v, want %v", v, a, b)
			}
		}
	}
}

func TestBuildMatchesCSR(t *testing.T) {
	edges := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 5)
	want := gen.Build(edges)
	base := filepath.Join(t.TempDir(), "g")
	if err := Build(base, SliceSource(edges), BuildOptions{N: want.NumNodes()}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadToCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, got, want)
}

// TestBuildKeepsLocalIDOrder builds a ring lattice, whose ids place
// neighbours next to each other, and the same lattice under shuffled
// ids: Build keeps the first in id order (idorder=1) and lays the second
// out in a peeling order, and both hold the CSR's lists.
func TestBuildKeepsLocalIDOrder(t *testing.T) {
	lattice := gen.SmallWorld(3000, 6, 0.1, 1)
	perm := rand.New(rand.NewSource(2)).Perm(3000)
	shuffled := make([]graph.Edge, len(lattice))
	for i, e := range lattice {
		shuffled[i] = graph.Edge{U: uint32(perm[e.U]), V: uint32(perm[e.V])}
	}
	for _, c := range []struct {
		name    string
		edges   []graph.Edge
		idOrder bool
	}{{"lattice", lattice, true}, {"shuffled", shuffled, false}} {
		want := gen.Build(c.edges)
		base := filepath.Join(t.TempDir(), "g")
		if err := Build(base, SliceSource(c.edges), BuildOptions{N: want.NumNodes()}); err != nil {
			t.Fatal(err)
		}
		if m, err := storage.ReadMeta(base); err != nil || m.Version != storage.FormatVersion || m.IDOrder != c.idOrder {
			t.Fatalf("%s: header %+v (%v), want format version %d, id order %v", c.name, m, err, storage.FormatVersion, c.idOrder)
		}
		got, err := ReadToCSR(base)
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, want)
	}
}

func TestBuildWithSpills(t *testing.T) {
	edges := gen.ErdosRenyi(500, 4000, 9)
	want := gen.Build(edges)
	base := filepath.Join(t.TempDir(), "g")
	ctr := stats.NewIOCounter(512)
	err := Build(base, SliceSource(edges), BuildOptions{
		N: want.NumNodes(), SortBudgetArcs: 128, IO: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadToCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, got, want)
	if ctr.Writes() == 0 {
		t.Fatal("external-sort build reported zero write I/Os")
	}
}

func TestBuildDropsLoopsAndDuplicates(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, // duplicates both ways
		{U: 2, V: 2}, // self loop
		{U: 1, V: 2},
	}
	base := filepath.Join(t.TempDir(), "g")
	if err := Build(base, SliceSource(edges), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadToCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", got.NumEdges())
	}
	if !got.HasEdge(0, 1) || !got.HasEdge(1, 2) || got.HasEdge(2, 2) {
		t.Fatal("wrong surviving edge set")
	}
}

func TestBuildGapNodes(t *testing.T) {
	// Node 5 exists only via N; nodes 2..4 appear in no edge.
	edges := []graph.Edge{{U: 0, V: 1}}
	base := filepath.Join(t.TempDir(), "g")
	if err := Build(base, SliceSource(edges), BuildOptions{N: 6}); err != nil {
		t.Fatal(err)
	}
	g, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumNodes() != 6 {
		t.Fatalf("n = %d, want 6", g.NumNodes())
	}
	for v := uint32(2); v < 6; v++ {
		if d, _ := g.Degree(v); d != 0 {
			t.Fatalf("deg(%d) = %d, want 0", v, d)
		}
	}
}

func TestBuildRejectsOverflowingForcedN(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 9}}
	base := filepath.Join(t.TempDir(), "g")
	if err := Build(base, SliceSource(edges), BuildOptions{N: 5}); err == nil {
		t.Fatal("endpoint beyond forced N accepted")
	}
}

func TestWriteCSRRoundTrip(t *testing.T) {
	want := gen.SampleGraph()
	base := filepath.Join(t.TempDir(), "g")
	if err := WriteCSR(base, want, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadToCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, got, want)
}

func TestTextRoundTrip(t *testing.T) {
	want := gen.Build(gen.BarabasiAlbert(120, 3, 3))
	dir := t.TempDir()
	txt := filepath.Join(dir, "edges.txt")
	if err := WriteText(txt, want); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "g")
	if err := Build(base, TextSource{Path: txt}, BuildOptions{N: want.NumNodes()}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadToCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, got, want)
}

func TestTextSourceSkipsCommentsAndRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.txt")
	write := func(s string) {
		t.Helper()
		if err := writeFile(path, s); err != nil {
			t.Fatal(err)
		}
	}
	write("# comment\n% other comment\n\n0 1\n1 2\n")
	var n int
	if err := (TextSource{Path: path}).Edges(func(u, v uint32) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("parsed %d edges, want 2", n)
	}
	write("0\n")
	if err := (TextSource{Path: path}).Edges(func(u, v uint32) error { return nil }); err == nil {
		t.Fatal("single-field line accepted")
	}
	write("a b\n")
	if err := (TextSource{Path: path}).Edges(func(u, v uint32) error { return nil }); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

// TestDiskBackedDecomposition is the end-to-end substrate check: SemiCore*
// over the on-disk tables must equal the in-memory run and the reference,
// with nonzero read I/O and zero write I/O (advantage A2 of the paper).
func TestDiskBackedDecomposition(t *testing.T) {
	mem := gen.Build(gen.Social(300, 3, 10, 8, 21))
	base := filepath.Join(t.TempDir(), "g")
	if err := WriteCSR(base, mem, nil); err != nil {
		t.Fatal(err)
	}
	ctr := stats.NewIOCounter(0)
	g, err := storage.Open(base, ctr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := semicore.SemiCoreStar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckAgainst(mem, res.Core); err != nil {
		t.Fatal(err)
	}
	if ctr.Reads() == 0 {
		t.Fatal("disk run performed no read I/O")
	}
	if ctr.Writes() != 0 {
		t.Fatalf("decomposition performed %d write I/Os, want 0", ctr.Writes())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// dirNames lists a directory, for "nothing but the caller's files" checks.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestConcurrentBuildsShareADirectory builds several graphs into one
// directory at once, each spilling dozens of runs there. When runs were
// named run-%d.arcs in the shared directory the builds overwrote and
// deleted each other's: one failed with "no such file", another returned
// nil with arcs missing.
func TestConcurrentBuildsShareADirectory(t *testing.T) {
	dir := t.TempDir()
	const builds = 4
	edges := make([][]graph.Edge, builds)
	for i := range edges {
		edges[i] = gen.ErdosRenyi(500, 4000, int64(40+i))
	}
	errs := make([]error, builds)
	var wg sync.WaitGroup
	for i := range edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Build(filepath.Join(dir, fmt.Sprintf("g%d", i)), SliceSource(edges[i]),
				BuildOptions{N: 500, SortBudgetArcs: 128})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		got, err := ReadToCSR(filepath.Join(dir, fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		csrEqual(t, got, gen.Build(edges[i]))
	}
	if names := dirNames(t, dir); len(names) != 4*builds {
		t.Fatalf("want only the %d graphs' files, got %v", builds, names)
	}
}

// failingSource hands out edges[:failAt], then fails; delivered counts
// what Build consumed.
type failingSource struct {
	edges     []graph.Edge
	failAt    int
	delivered int
}

var errSourceBroke = errors.New("source broke")

func (s *failingSource) Edges(fn func(u, v uint32) error) error {
	for i, e := range s.edges {
		if i == s.failAt {
			return errSourceBroke
		}
		s.delivered++
		if err := fn(e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

// TestBuildErrorPathsLeaveNoSpill fails Build after it has spilled runs,
// once per exit: the source, the forced node count, the copy out of the
// scratch table, the table builder. Each must leave the spill directory
// holding only the caller's file: no run and no scratch table.
func TestBuildErrorPathsLeaveNoSpill(t *testing.T) {
	edges := gen.ErdosRenyi(300, 2000, 11)
	const sentinel = "callers-file"
	run := func(name string, build func(t *testing.T, dir string) error) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeFile(filepath.Join(dir, sentinel), "x"); err != nil {
				t.Fatal(err)
			}
			if err := build(t, dir); err == nil {
				t.Fatal("Build succeeded")
			}
			if names := dirNames(t, dir); len(names) != 1 || names[0] != sentinel {
				t.Fatalf("Build left %v behind", names)
			}
		})
	}
	run("source fails", func(t *testing.T, dir string) error {
		src := &failingSource{edges: edges, failAt: 1500}
		err := Build(filepath.Join(dir, "g"), src, BuildOptions{SortBudgetArcs: 64})
		if !errors.Is(err, errSourceBroke) {
			t.Errorf("err = %v, want the source's", err)
		}
		return err
	})
	run("endpoint beyond forced N", func(t *testing.T, dir string) error {
		bad := slices.Clone(edges)
		bad[1500] = graph.Edge{U: 3, V: 300}
		src := &failingSource{edges: bad, failAt: -1}
		err := Build(filepath.Join(dir, "g"), src, BuildOptions{N: 300, SortBudgetArcs: 64})
		if src.delivered != 1501 {
			t.Errorf("Build consumed %d edges, want it to stop at the offending 1501st", src.delivered)
		}
		if err != nil && !strings.Contains(err.Error(), "(3,300)") {
			t.Errorf("err = %v, want it to name the edge", err)
		}
		return err
	})
	run("copy fails", func(t *testing.T, dir string) error {
		// The copy writes every list, then finds a directory where the
		// target's header goes.
		out := t.TempDir()
		if err := os.Mkdir(filepath.Join(out, "g.meta"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := Build(filepath.Join(out, "g"), SliceSource(edges), BuildOptions{TempDir: dir, SortBudgetArcs: 64})
		if err == nil || !strings.Contains(err.Error(), "g.meta") {
			t.Errorf("err = %v, want the target header's", err)
		}
		return err
	})
	run("table builder fails", func(t *testing.T, dir string) error {
		err := Build(filepath.Join(dir, "no-such-dir", "g"), SliceSource(edges),
			BuildOptions{TempDir: dir, SortBudgetArcs: 64})
		if !errors.Is(err, os.ErrNotExist) {
			t.Errorf("err = %v, want not-exist from the table files", err)
		}
		return err
	})
}

// TestBuildBytesIndependentOfBudget: the sort budget decides how many runs
// there are and nothing else — the three files are the same bytes.
func TestBuildBytesIndependentOfBudget(t *testing.T) {
	edges := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 12) // duplicates and self-loops included
	dir := t.TempDir()
	var want [3][]byte
	for i, budget := range []int{0, 16, 128} {
		base := filepath.Join(dir, fmt.Sprintf("g%d", budget))
		if err := Build(base, SliceSource(edges), BuildOptions{N: 1 << 9, SortBudgetArcs: budget}); err != nil {
			t.Fatal(err)
		}
		for j, ext := range []string{".meta", ".nt", ".et"} {
			got, err := os.ReadFile(base + ext)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want[j] = got
			} else if !bytes.Equal(got, want[j]) {
				t.Fatalf("SortBudgetArcs %d: %s differs from the default budget's", budget, ext)
			}
		}
	}
}
