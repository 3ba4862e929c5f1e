package storage

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/testutil/pins"
)

func TestMain(m *testing.M) { pins.Main(m) }

// buildGraph writes a small graph and reopens it with a fresh counter.
func buildGraph(t *testing.T, adj [][]uint32, blockSize int) (*Graph, *stats.IOCounter) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	ctr := stats.NewIOCounter(blockSize)
	b, err := NewBuilder(base, uint32(len(adj)), ctr)
	if err != nil {
		t.Fatal(err)
	}
	for v, nbrs := range adj {
		if err := b.AppendList(uint32(v), nbrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rctr := stats.NewIOCounter(blockSize)
	g, err := Open(base, rctr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, rctr
}

// invalidateBuffers drops both tables' cached blocks, so the next reads
// are charged.
func invalidateBuffers(g *Graph) {
	g.nt.cache.drop(g.nt.id)
	g.et.cache.drop(g.et.id)
}

var sampleAdj = [][]uint32{
	{1, 2, 3},
	{0, 2, 3},
	{0, 1, 3, 4},
	{0, 1, 2, 4, 5, 6},
	{2, 3, 5},
	{3, 4, 6, 7, 8},
	{3, 5, 7},
	{5, 6},
	{5},
}

func TestRoundTrip(t *testing.T) {
	g, _ := buildGraph(t, sampleAdj, 0)
	if g.NumNodes() != 9 {
		t.Fatalf("n = %d, want 9", g.NumNodes())
	}
	if g.NumArcs() != 30 || g.NumEdges() != 15 {
		t.Fatalf("arcs = %d edges = %d, want 30/15", g.NumArcs(), g.NumEdges())
	}
	for v, want := range sampleAdj {
		got, err := g.Neighbors(uint32(v), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("nbr(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nbr(%d) = %v, want %v", v, got, want)
			}
		}
	}
	if d, _ := g.Degree(3); d != 6 {
		t.Fatalf("deg(3) = %d, want 6", d)
	}
}

func TestSequentialScanIOCount(t *testing.T) {
	// With B = 16 the node table is 17 bytes = 2 blocks (eight lists take
	// the Rice form, a record of two one-byte varints, and {5} one byte of
	// fixed width, a record of one) and the edge table 10 bytes = 1 block
	// (n = 9: each Rice list's values take 1 to 4 bits, so {3 4 6 7 8}
	// two bytes and every other list one). 16 is no whole number of
	// sidecar granules, so the open is the pass: exactly 3 read I/Os,
	// which build the node index on the way, and a full scan then costs
	// the edge table's 1.
	g, ctr := buildGraph(t, sampleAdj, 16)
	pins.Check(t, "open.reads", ctr.Reads())
	ctr.Reset()
	visited := 0
	err := graph.ScanAll(g, func(v uint32, nbrs []uint32) error {
		visited++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 9 {
		t.Fatalf("visited %d nodes, want 9", visited)
	}
	pins.Check(t, "scan.reads", ctr.Reads())
	// A second full scan is free: two blocks fit the graph's frames.
	before := ctr.Reads()
	if err := graph.ScanAll(g, func(uint32, []uint32) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Reads() - before; got != 0 {
		t.Fatalf("second scan cost %d read I/Os, want 0", got)
	}
}

func TestPartialScanSkipsBlocks(t *testing.T) {
	// A 600-node path at B = 512: the node table is 600 bytes, 2 blocks
	// (every record one varint byte: 2<<2 | 0 inside, 1<<2 | 1 at the
	// ends), the edge table 598*3 + 2*2 = 1798 bytes, 4 blocks (each
	// inner list a 2-byte first id and a 1-byte gap of 2). The node
	// table is paid once, by the first use, for the index; after it a
	// want-predicate selecting only node 0 touches exactly the one edge
	// block holding its list, and a full scan the edge table alone.
	n := 600
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		if v > 0 {
			adj[v] = append(adj[v], uint32(v-1))
		}
		if v < n-1 {
			adj[v] = append(adj[v], uint32(v+1))
		}
	}
	g, ctr := buildGraph(t, adj, 512)
	last := g.NumNodes() - 1
	for _, scan := range []string{"first", "second"} {
		ctr.Reset()
		invalidateBuffers(g)
		err := g.ScanDynamic(0, func() uint32 { return last }, func(v uint32) bool { return v == 0 }, func(v uint32, nbrs []uint32) error {
			if v != 0 || len(nbrs) != 1 || nbrs[0] != 1 {
				t.Fatalf("unexpected visit v=%d nbrs=%v", v, nbrs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pins.Check(t, "node0."+scan+".reads", ctr.Reads())
	}
	ctr.Reset()
	invalidateBuffers(g)
	if err := graph.ScanAll(g, func(uint32, []uint32) error { return nil }); err != nil {
		t.Fatal(err)
	}
	pins.Check(t, "scan.reads", ctr.Reads())
}

func TestScanDynamicExtendsWindow(t *testing.T) {
	g, _ := buildGraph(t, sampleAdj, 0)
	var visited []uint32
	curMax := uint32(2)
	err := g.ScanDynamic(0, func() uint32 { return curMax }, nil, func(v uint32, nbrs []uint32) error {
		visited = append(visited, v)
		if v == 1 {
			curMax = 4 // extend mid-scan
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 5 || visited[4] != 4 {
		t.Fatalf("visited = %v, want [0 1 2 3 4]", visited)
	}
}

func TestBuilderRejectsMalformedLists(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g")
	ctr := stats.NewIOCounter(0)
	b, err := NewBuilder(base, 5, ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	if err := b.AppendList(1, nil); err != nil {
		t.Fatalf("an append out of id order: %v", err)
	}
	if err := b.AppendList(1, nil); err == nil {
		t.Fatal("a second append of one node accepted")
	}
	if err := b.AppendList(0, []uint32{0}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AppendList(0, []uint32{3, 2}); err == nil {
		t.Fatal("descending list accepted")
	}
	if err := b.AppendList(0, []uint32{2, 2}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := b.AppendList(0, []uint32{9}); err == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
}

func TestBuilderPadsMissingNodes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g")
	ctr := stats.NewIOCounter(0)
	b, err := NewBuilder(base, 4, ctr)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendList(0, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendList(1, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if d, _ := g.Degree(3); d != 0 {
		t.Fatalf("padded node degree = %d, want 0", d)
	}
}

// TestBuilderUvarint builds a graph on 2^17 nodes, whose ids take 3
// bytes, from lists that the uvarint or the Rice form stores in fewer
// bytes and lists they do not, first in id order and then out of it, so
// that the records already written, two varints each for a uvarint or a
// Rice list, are led by ids afterwards. Every list reads back as
// appended, from its shortest form.
func TestBuilderUvarint(t *testing.T) {
	const n = 1 << 17
	lists := [][]uint32{
		{5, 7},                  // Rice (k = 2): 1 byte, uvarint 2, fixed width 4
		{3, 300, 70000, 130000}, // uvarint: 9 bytes, Rice (k = 14) 9, fixed width 12
		{9},                     // uvarint: 1 byte, Rice (k = 3) 1, fixed width 3
		{20000, 20200, 20400},   // fixed width 1: 5 bytes, Rice (k = 12) 6, uvarint 7
		{70000},                 // fixed width: 3 bytes, uvarint 3, Rice (k = 16) 3
		{},
	}
	order := []uint32{0, 1, 2, 9, 3, 4, 8, 5}
	base := filepath.Join(t.TempDir(), "g")
	b, err := NewBuilder(base, n, stats.NewIOCounter(0))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, v := range order {
		l := lists[i%len(lists)]
		if err := b.AppendList(v, l); err != nil {
			t.Fatal(err)
		}
		want += listBytes(n, l)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMeta(base)
	if err != nil || m.IDOrder || m.EtBytes != want {
		t.Fatalf("header %+v (%v): want the lists out of id order in %d bytes", m, err, want)
	}
	g, err := Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, v := range order {
		got, err := g.Neighbors(v, nil)
		if l := lists[i%len(lists)]; err != nil || !slices.Equal(got, l) {
			t.Errorf("node %d: %v (%v), want %v", v, got, err, l)
		}
	}
}

// TestBuilderLayout: lists appended in id order give a header that says
// idorder=1 and a node table of one varint a node; the same lists in
// another order give records that carry their ids, and a graph that
// scans, positions and looks up every node as laid out. Nodes never
// appended are padded after the rest, in id order, with empty lists.
func TestBuilderLayout(t *testing.T) {
	lists := map[uint32][]uint32{0: {1, 2}, 1: {0, 2, 4}, 2: {0, 1}, 4: {1}}
	adj := make([][]uint32, 6)
	for v, l := range lists {
		adj[v] = l
	}
	build := func(order ...uint32) (Meta, *Graph) {
		t.Helper()
		base := filepath.Join(t.TempDir(), "g")
		b, err := NewBuilder(base, 6, stats.NewIOCounter(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range order {
			if err := b.AppendList(v, lists[v]); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMeta(base)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Open(base, stats.NewIOCounter(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return m, g
	}
	if m, g := build(0, 1, 2); m.Version != FormatVersion || !m.IDOrder || m.NtBytes != ntBytes(adj) || g.Positions() != nil {
		t.Fatalf("in id order: header %+v, Positions %v; want version %d in id order, %d bytes of records, nil (the identity)", m, g.Positions(), FormatVersion, ntBytes(adj))
	}
	m, g := build(4, 1, 0, 2)
	if m.Version != FormatVersion || m.IDOrder || m.NtBytes != ntBytes(adj)+6 {
		t.Fatalf("out of id order: header %+v, want version %d out of id order and %d bytes, a byte of id a node more", m, FormatVersion, ntBytes(adj)+6)
	}
	layout := []uint32{4, 1, 0, 2, 3, 5}
	pos := g.Positions()
	for p, v := range layout {
		if got := pos[v]; got != uint32(p) {
			t.Errorf("position of %d = %d, want %d", v, got, p)
		}
		nbrs, err := g.Neighbors(v, nil)
		if err != nil || !slices.Equal(nbrs, lists[v]) {
			t.Errorf("Neighbors(%d) = %v, %v; want %v", v, nbrs, err, lists[v])
		}
	}
	var scanned []uint32
	err := g.ScanDynamic(1, func() uint32 { return 4 }, func(v uint32) bool { return v != 0 }, func(v uint32, nbrs []uint32) error {
		scanned = append(scanned, v)
		return nil
	})
	if err != nil || !slices.Equal(scanned, []uint32{1, 2, 3}) {
		t.Fatalf("Scan of positions [1,4] without node 0 visited %v (%v), want [1 2 3]", scanned, err)
	}
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "g")
	ctr := stats.NewIOCounter(0)
	b, err := NewBuilder(base, 3, ctr)
	if err != nil {
		t.Fatal(err)
	}
	// Three bytes of lists: one Rice byte, then one id each in its byte.
	for v, l := range [][]uint32{{1, 2}, {0}, {0}} {
		if err := b.AppendList(uint32(v), l); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncated edge table must be rejected.
	et := base + ".et"
	data, err := os.ReadFile(et)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(et, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, ctr, nil); err == nil || !strings.Contains(err.Error(), "edge table size") {
		t.Fatalf("truncated edge table: err = %v", err)
	}
	if err := os.WriteFile(et, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A header without either table checksum is refused with the
	// upgrade path: no version-6 or -7 writer left one.
	header, err := os.ReadFile(base + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ntcrc", "etcrc"} {
		var kept []string
		for _, line := range strings.SplitAfter(string(header), "\n") {
			if !strings.HasPrefix(line, key+"=") {
				kept = append(kept, line)
			}
		}
		if err := os.WriteFile(base+".meta", []byte(strings.Join(kept, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := ReadMeta(base)
		_, oerr := Open(base, ctr, nil)
		for _, err := range []error{rerr, oerr} {
			if err == nil || !strings.Contains(err.Error(), "without "+key) || !strings.Contains(err.Error(), "kcored built at commit "+UpgradeCommit) {
				t.Errorf("a header without %s: %v; want a refusal naming the upgrade", key, err)
			}
		}
	}

	// Corrupt meta must be rejected.
	if err := os.WriteFile(base+".meta", []byte("version=99\nnodes=3\narcs=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, ctr, nil); err == nil {
		t.Fatal("bad version accepted")
	}
	if err := os.WriteFile(base+".meta", []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, ctr, nil); err == nil {
		t.Fatal("malformed meta accepted")
	}
	// Values outside their field's range must be rejected, not wrapped.
	for _, meta := range []string{
		"version=7\nnodes=4294967297\narcs=2\nntbytes=3\netbytes=2\nidorder=1\n",  // would open as N = 1
		"version=7\nnodes=-4294967293\narcs=2\nntbytes=3\netbytes=2\nidorder=1\n", // would open as N = 3
		"version=7\nnodes=3\narcs=-2\nntbytes=3\netbytes=2\nidorder=1\n",
		"version=7\nnodes=3\narcs=2\nntbytes=3\netbytes=2\nidorder=1\nntcrc=-1\netcrc=0\n",
		"version=7\nnodes=3\narcs=2\nntbytes=3\netbytes=2\nidorder=1\nntcrc=0\netcrc=4294967296\n",
	} {
		if err := os.WriteFile(base+".meta", []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMeta(base); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("meta %q: err = %v, want an out-of-range rejection", meta, err)
		}
	}
	// A header of a retired version is refused with its upgrade path,
	// whatever keys it carries.
	for _, meta := range []string{
		"version=1\nnodes=3\narcs=2\n",
		"version=5\nnodes=3\narcs=2\nntbytes=3\netbytes=2\nidorder=1\n",
	} {
		if err := os.WriteFile(base+".meta", []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMeta(base); err == nil || !strings.Contains(err.Error(), "is retired") || !strings.Contains(err.Error(), UpgradeCommit) {
			t.Errorf("meta %q: err = %v, want the retired version's upgrade path", meta, err)
		}
	}
	// A node table holds one to ten bytes a record, two to fifteen when
	// records carry ids: its size, which the open holds the file to, must
	// bound the node count before anything is sized from it.
	for _, meta := range []string{
		"version=6\nnodes=4294967295\narcs=0\nntbytes=10\netbytes=0\nidorder=1\nntcrc=0\netcrc=0\n",
		"version=6\nnodes=3\narcs=2\nntbytes=31\netbytes=2\nidorder=1\nntcrc=0\netcrc=0\n",
		"version=7\nnodes=3\narcs=2\nntbytes=5\netbytes=2\nidorder=0\nntcrc=0\netcrc=0\n",
		"version=7\nnodes=3\narcs=2\nntbytes=46\netbytes=2\nidorder=0\nntcrc=0\netcrc=0\n",
	} {
		if err := os.WriteFile(base+".meta", []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMeta(base); err == nil || !strings.Contains(err.Error(), "cannot hold") {
			t.Errorf("meta %q: err = %v, want a node table too small or too large for its records", meta, err)
		}
	}
}

func TestNodeRecordOutOfRange(t *testing.T) {
	g, _ := buildGraph(t, sampleAdj, 0)
	if _, err := g.record(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestBlockWriterCounts(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewIOCounter(64)
	w, err := CreateBlockWriter(filepath.Join(dir, "f"), ctr)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200) // 200 bytes over B=64 -> 4 write I/Os
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Writes(); got != 4 {
		t.Fatalf("writes = %d, want 4", got)
	}
}
