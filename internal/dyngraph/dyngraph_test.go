package dyngraph_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

func TestOverlayBasics(t *testing.T) { onEachDriver(t, testOverlayBasics) }

func testOverlayBasics(t *testing.T, open driverOpen) {
	g := open(gen.SampleGraph(), dyngraph.Options{})
	if g.NumNodes() != 9 || g.NumEdges() != 15 {
		t.Fatalf("n=%d m=%d, want 9/15", g.NumNodes(), g.NumEdges())
	}
	// Paper's Example 2.1 edge: (7,8) is absent, (5,8) present.
	if has, _ := g.HasEdge(7, 8); has {
		t.Fatal("(7,8) should be absent")
	}
	if has, _ := g.HasEdge(5, 8); !has {
		t.Fatal("(5,8) should be present")
	}
	if err := g.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 16 || g.BufferedArcs() != 2 {
		t.Fatalf("m=%d buffered=%d after insert", g.NumEdges(), g.BufferedArcs())
	}
	nbrs, err := g.Neighbors(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(nbrs) != "[5 7]" {
		t.Fatalf("nbr(8) = %v, want [5 7]", nbrs)
	}
	if d, _ := g.Degree(8); d != 2 {
		t.Fatalf("deg(8) = %d, want 2", d)
	}
	// Delete a disk edge and check the merge hides it.
	if err := g.DeleteEdge(5, 8); err != nil {
		t.Fatal(err)
	}
	nbrs, _ = g.Neighbors(8, nil)
	if fmt.Sprint(nbrs) != "[7]" {
		t.Fatalf("nbr(8) = %v, want [7]", nbrs)
	}
	// Insert cancelling a buffered delete restores the disk edge without
	// growing the buffer.
	if err := g.InsertEdge(5, 8); err != nil {
		t.Fatal(err)
	}
	nbrs, _ = g.Neighbors(8, nil)
	if fmt.Sprint(nbrs) != "[5 7]" {
		t.Fatalf("nbr(8) = %v, want [5 7]", nbrs)
	}
}

func TestRejections(t *testing.T) { onEachDriver(t, testRejections) }

func testRejections(t *testing.T, open driverOpen) {
	g := open(gen.SampleGraph(), dyngraph.Options{})
	if err := g.InsertEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate (disk) accepted")
	}
	if err := g.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertEdge(8, 7); err == nil {
		t.Fatal("duplicate (buffered) accepted")
	}
	if err := g.DeleteEdge(0, 4); err == nil {
		t.Fatal("absent delete accepted")
	}
	if err := g.InsertEdge(0, 100); err == nil {
		t.Fatal("out-of-range accepted")
	}
	// Only the one valid insert left a trace.
	if g.NumEdges() != 16 || g.BufferedArcs() != 2 {
		t.Fatalf("m=%d buffered=%d after the rejections, want 16 and 2", g.NumEdges(), g.BufferedArcs())
	}
}

func TestScanMergedView(t *testing.T) { onEachDriver(t, testScanMergedView) }

func testScanMergedView(t *testing.T, open driverOpen) {
	g := open(gen.SampleGraph(), dyngraph.Options{})
	if err := g.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	sum := 0
	err := graph.ScanAll(g, func(v uint32, nbrs []uint32) error {
		sum += len(nbrs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(sum) != g.NumArcs() {
		t.Fatalf("scan saw %d arcs, want %d", sum, g.NumArcs())
	}
	var degSum uint32
	g.ScanDegrees(func(v uint32, d uint32) error {
		degSum += d
		return nil
	})
	if int64(degSum) != g.NumArcs() {
		t.Fatalf("degree sum %d, want %d", degSum, g.NumArcs())
	}
}

func TestCompactionEquivalence(t *testing.T) { onEachDriver(t, testCompactionEquivalence) }

func testCompactionEquivalence(t *testing.T, open driverOpen) {
	src := gen.Build(gen.ErdosRenyi(120, 400, 97))
	g := open(src, dyngraph.Options{BufferArcs: 1 << 30}) // manual compaction only
	ctr := g.ctr
	ref := imcore.NewDynGraph(src)
	r := rand.New(rand.NewSource(98))
	for i := 0; i < 200; i++ {
		u := uint32(r.Intn(120))
		v := uint32(r.Intn(120))
		if u == v {
			continue
		}
		if has, _ := g.HasEdge(u, v); has {
			if err := g.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
			ref.Delete(u, v)
		} else {
			if err := g.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
			ref.Insert(u, v)
		}
	}
	compare := func(stage string) {
		t.Helper()
		if g.NumEdges() != ref.NumEdges() {
			t.Fatalf("%s: m=%d, want %d", stage, g.NumEdges(), ref.NumEdges())
		}
		for v := uint32(0); v < 120; v++ {
			got, err := g.Neighbors(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.Neighbors(v)) {
				t.Fatalf("%s: nbr(%d) = %v, want %v", stage, v, got, ref.Neighbors(v))
			}
		}
	}
	compare("buffered")
	writesBefore := ctr.Writes()
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if g.BufferedArcs() != 0 || g.FoldBacks() != 1 {
		t.Fatalf("buffered=%d compactions=%d after Compact", g.BufferedArcs(), g.FoldBacks())
	}
	if ctr.Writes() == writesBefore {
		t.Fatal("compaction performed no write I/O")
	}
	compare("compacted")
	// Compacting an empty buffer is a no-op.
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if g.FoldBacks() != 1 {
		t.Fatal("empty compaction should not count")
	}
}

func TestAutoCompaction(t *testing.T) { onEachDriver(t, testAutoCompaction) }

func testAutoCompaction(t *testing.T, open driverOpen) {
	g := open(gen.SampleGraph(), dyngraph.Options{BufferArcs: 4})
	// Each insert buffers 2 arcs; the third edit exceeds the 4-arc limit.
	pairs := [][2]uint32{{7, 8}, {0, 4}, {1, 4}, {2, 8}}
	for _, p := range pairs {
		if err := g.InsertEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if g.FoldBacks() == 0 {
		t.Fatal("auto compaction never triggered")
	}
	if g.NumEdges() != 19 {
		t.Fatalf("m = %d, want 19", g.NumEdges())
	}
	for _, p := range pairs {
		if has, _ := g.HasEdge(p[0], p[1]); !has {
			t.Fatalf("edge %v lost across compaction", p)
		}
	}
}

// compactFiles lists what exists of the tables a rewrite builds beside
// the ones at base.
func compactFiles(t *testing.T, base string) []string {
	t.Helper()
	left, err := filepath.Glob(base + ".compact.*")
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestOpenSweepsAbandonedRewrite: a process killed inside a rewrite
// leaves half-built tables, and a sidecar for them, beside the real ones;
// the next Open removes them.
func TestOpenSweepsAbandonedRewrite(t *testing.T) { onEachDriver(t, testOpenSweepsAbandonedRewrite) }

func testOpenSweepsAbandonedRewrite(t *testing.T, open driverOpen) {
	g := open(gen.SampleGraph(), dyngraph.Options{})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".nt", ".et", ".crc"} { // no header yet: the builder writes it last
		if err := os.WriteFile(g.base+".compact"+ext, []byte("half a table"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := dyngraph.Open(g.base, g.ctr, dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if left := compactFiles(t, g.base); len(left) != 0 {
		t.Errorf("Open left %v of an abandoned rewrite behind", left)
	}
}

// TestFailedRewriteLeavesNothingBehind: a rewrite whose scan of the old
// tables fails (here the edge table lost its second half under the
// running graph) reports the error, keeps the buffer, and removes the
// tables it had started to build.
func TestFailedRewriteLeavesNothingBehind(t *testing.T) {
	onEachDriver(t, testFailedRewriteLeavesNothingBehind)
}

func testFailedRewriteLeavesNothingBehind(t *testing.T, open driverOpen) {
	g := open(gen.Build(gen.Social(200, 3, 6, 6, 41)), dyngraph.Options{})
	if err := g.InsertEdge(0, 199); err != nil { // reads nbr(0): the head of the table only
		t.Fatal(err)
	}
	fi, err := os.Stat(g.base + ".et")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(g.base+".et", fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := g.Compact(); err == nil {
		t.Fatal("Compact rewrote a truncated edge table without noticing")
	}
	if g.BufferedArcs() != 2 || g.FoldBacks() != 0 {
		t.Errorf("%d arcs buffered after %d compactions, want the edit still buffered", g.BufferedArcs(), g.FoldBacks())
	}
	if left := compactFiles(t, g.base); len(left) != 0 {
		t.Errorf("the failed rewrite left %v behind", left)
	}
}

// TestCloseNeverTearsState: once any auto-compaction has rewritten the
// files, Close must flush the rest of the buffer instead of discarding it
// (a discard would mix pre-compaction and lost post-compaction edits).
// The rule is the CSR driver's: its files are the caller's graph.
func TestCloseNeverTearsState(t *testing.T) {
	src := gen.SampleGraph()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, src, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	g, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{BufferArcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 3 inserts: the third triggers compaction; a fourth stays buffered.
	for _, p := range [][2]uint32{{7, 8}, {0, 4}, {1, 4}, {2, 8}} {
		if err := g.InsertEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if g.FoldBacks() == 0 || g.BufferedArcs() == 0 {
		t.Fatalf("test setup wrong: compactions=%d buffered=%d", g.FoldBacks(), g.BufferedArcs())
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.NumEdges() != 19 {
		t.Fatalf("edges after close = %d, want 19 (no torn state)", g2.NumEdges())
	}
	for _, p := range [][2]uint32{{7, 8}, {0, 4}, {1, 4}, {2, 8}} {
		if has, _ := g2.HasEdge(p[0], p[1]); !has {
			t.Fatalf("edge %v lost at close", p)
		}
	}
}

// TestClosePreservesDiskWhenNoCompaction: the discard semantics still
// hold for sessions that never compacted.
func TestClosePreservesDiskWhenNoCompaction(t *testing.T) {
	src := gen.SampleGraph()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, src, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	g, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{BufferArcs: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InsertEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := dyngraph.Open(base, stats.NewIOCounter(0), dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.NumEdges() != 15 {
		t.Fatalf("edges = %d, want 15 (buffered edit discarded)", g2.NumEdges())
	}
}
