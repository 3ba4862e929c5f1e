package emcore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/verify"
)

func TestMain(m *testing.M) { pins.Main(m) }

// onDisk materialises a CSR as an on-disk graph for EMCore.
func onDisk(t *testing.T, g *memgraph.CSR) *storage.Graph {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, g, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	dg, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dg.Close() })
	return dg
}

func corpus(tb testing.TB) map[string]*memgraph.CSR {
	tb.Helper()
	return map[string]*memgraph.CSR{
		"sample": gen.SampleGraph(),
		"er":     gen.Build(gen.ErdosRenyi(300, 900, 41)),
		"ba":     gen.Build(gen.BarabasiAlbert(400, 4, 43)),
		"rmat":   gen.Build(gen.RMAT(9, 6, 0.57, 0.19, 0.19, 45)),
		"social": gen.Build(gen.Social(350, 3, 12, 9, 47)),
		"web":    gen.Build(gen.WebGraph(7, 4, 6, 25, 49)),
	}
}

func TestDecomposeAgainstReference(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			dg := onDisk(t, g)
			res, err := Decompose(dg, Options{TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckAgainst(g, res.Core); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBudgetControlsRounds(t *testing.T) {
	g := gen.Build(gen.RMAT(10, 8, 0.57, 0.19, 0.19, 51))
	dg := onDisk(t, g)

	// A budget covering the whole graph finishes in one round.
	big, err := Decompose(dg, Options{
		TempDir:          t.TempDir(),
		MemoryBudgetArcs: dg.NumArcs() * 2,
		PartitionArcs:    dg.NumArcs() / 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Rounds != 1 {
		t.Fatalf("whole-graph budget used %d rounds, want 1", big.Rounds)
	}
	if err := verify.CheckAgainst(g, big.Core); err != nil {
		t.Fatal(err)
	}

	// A tight budget needs several rounds but stays correct.
	small, err := Decompose(dg, Options{
		TempDir:          t.TempDir(),
		MemoryBudgetArcs: 2048,
		PartitionArcs:    512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.Rounds < 2 {
		t.Fatalf("tight budget used %d rounds, want >= 2", small.Rounds)
	}
	if err := verify.CheckAgainst(g, small.Core); err != nil {
		t.Fatal(err)
	}
	if small.PeakLoadedArcs > big.PeakLoadedArcs {
		t.Fatalf("tight budget peak %d > loose budget peak %d", small.PeakLoadedArcs, big.PeakLoadedArcs)
	}
}

func TestWriteIOHappens(t *testing.T) {
	// Advantage A2 of the paper: EMCore re-partitions, so unlike the
	// SemiCore family it must issue write I/O.
	g := gen.Build(gen.ErdosRenyi(400, 2000, 53))
	dg := onDisk(t, g)
	ctr := stats.NewIOCounter(0)
	if _, err := Decompose(dg, Options{TempDir: t.TempDir(), IO: ctr, MemoryBudgetArcs: 1500}); err != nil {
		t.Fatal(err)
	}
	if ctr.Writes() == 0 {
		t.Fatal("EMCore performed no write I/O")
	}
	if ctr.Reads() == 0 {
		t.Fatal("EMCore performed no read I/O")
	}
}

func TestMemoryBlowupShape(t *testing.T) {
	// The paper's critique: even with a tight budget, processing the low
	// core ranges loads most of the graph. On a graph whose mass sits in
	// low cores, the peak load must far exceed the budget.
	g := gen.Build(gen.WebGraph(9, 3, 20, 40, 55))
	dg := onDisk(t, g)
	budget := int64(1024)
	res, err := Decompose(dg, Options{TempDir: t.TempDir(), MemoryBudgetArcs: budget, PartitionArcs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckAgainst(g, res.Core); err != nil {
		t.Fatal(err)
	}
	if res.PeakLoadedArcs <= budget {
		t.Fatalf("peak loaded arcs %d within budget %d; expected the paper's blow-up", res.PeakLoadedArcs, budget)
	}
}

func TestIsolatedAndEmpty(t *testing.T) {
	empty, err := memgraph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(onDisk(t, empty), Options{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Core) != 0 {
		t.Fatal("empty graph produced cores")
	}

	iso, err := memgraph.FromEdges(10, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Decompose(onDisk(t, iso), Options{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckAgainst(iso, res.Core); err != nil {
		t.Fatal(err)
	}
}

// TestEMCoreIOGate pins EMCore's exact partition I/O and round count on
// testutil's gate graph with 4 KiB blocks at the default budget and at a
// tight one: what the partition layout, the range rule and the partition
// reader cost is fixed, so a change to any of them shows here. The
// tables are in id order, as the paper's evaluation writes them: EMCore
// cuts its partitions from the layout, and in Build's peeling order it
// costs a quarter of the I/O.
func TestEMCoreIOGate(t *testing.T) {
	g := gen.Build(testutil.GateEdges())
	dg := onDisk(t, g)
	for _, budget := range []int64{0, 4096} {
		ctr := stats.NewIOCounter(4096)
		res, err := Decompose(dg, Options{TempDir: t.TempDir(), IO: ctr, MemoryBudgetArcs: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckAgainst(g, res.Core); err != nil {
			t.Fatal(err)
		}
		t.Logf("budget %d: %d reads, %d writes, %d rounds", budget, ctr.Reads(), ctr.Writes(), res.Rounds)
		leg := fmt.Sprintf("budget=%d.", budget)
		pins.Check(t, leg+"reads", ctr.Reads())
		pins.Check(t, leg+"writes", ctr.Writes())
		pins.Check(t, leg+"rounds", int64(res.Rounds))
	}
}

// TestPartitionsReadBack writes a graph's lists as one partition and
// reads them back through readPartition: at B = 6, where every 8-byte
// record header straddles a block boundary, and at 4,096, each record as
// written. Then a byte flipped in the middle of the second
// FlushBlocks-block read fails the read at that block.
func TestPartitionsReadBack(t *testing.T) {
	g := gen.Build(gen.ErdosRenyi(2000, 14000, 57))
	dg := onDisk(t, g)
	for _, B := range []int{6, 4096} {
		ctr := stats.NewIOCounter(B)
		parts, err := buildPartitions(dg, t.TempDir(), dg.NumArcs(), make([]uint32, g.NumNodes()), ctr)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 {
			t.Fatalf("B=%d: %d partitions, want one", B, len(parts))
		}
		v := uint32(0)
		err = readPartition(parts[0], ctr, func(u uint32, nbrs []uint32) error {
			if want := g.Neighbors(v); u != v || !slices.Equal(nbrs, want) {
				return fmt.Errorf("record %d: node %d with %d neighbours, want %d with %d", v, u, len(nbrs), v, len(want))
			}
			v++
			return nil
		})
		if err != nil || v != g.NumNodes() {
			t.Fatalf("B=%d: %d of %d records read back: %v", B, v, g.NumNodes(), err)
		}

		path := parts[0].paths[parts[0].cur]
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blk := storage.FlushBlocks * 3 / 2
		if len(data) < (blk+1)*B {
			t.Fatalf("B=%d: a %d-byte partition has no block %d", B, len(data), blk)
		}
		data[blk*B+B/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err = readPartition(parts[0], ctr, func(uint32, []uint32) error { return nil })
		if want := fmt.Sprintf("block %d of %s corrupt", blk, path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("B=%d: a partition damaged in block %d: err = %v, want %q", B, blk, err, want)
		}
	}
}
