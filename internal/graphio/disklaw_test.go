package graphio

import (
	"path/filepath"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/verify"
)

// TestSemiCoreIOLaw pins Theorem 4.2's I/O complexity as an exact law of
// the implementation: the node table is read once, into memory, by the
// degree-initialisation pass, and SemiCore performs l full sequential
// scans of the edge table, so its read I/O count equals
// ceil(nodeTableBytes/B) + l * ceil(edgeTableBytes/B) on an edge table
// several times the size of the frames storage.Open reads through (64
// blocks; here about 3x at B=512, 23x at B=64), which therefore carry no
// block from one scan to the next.
func TestSemiCoreIOLaw(t *testing.T) {
	mem := gen.Build(gen.Social(4000, 3, 10, 9, 701))
	base := filepath.Join(t.TempDir(), "g")
	if err := WriteCSR(base, mem, nil); err != nil {
		t.Fatal(err)
	}
	for _, blockSize := range []int{64, 512} {
		ctr := stats.NewIOCounter(blockSize)
		g, err := storage.Open(base, ctr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := semicore.SemiCore(g, nil)
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		B := int64(blockSize)
		ntBytes := int64(mem.NumNodes()) * storage.NodeRecordSize
		etBytes := mem.NumArcs() * storage.ArcSize
		want := (ntBytes+B-1)/B + int64(res.Stats.Iterations)*((etBytes+B-1)/B)
		if got := ctr.Reads(); got != want {
			t.Fatalf("B=%d: reads = %d, want %d (l=%d iterations)",
				blockSize, got, want, res.Stats.Iterations)
		}
	}
}

// TestBuildIOLaw pins construction's cost in the same model: Build is one
// sort plus sequential scans. The sorter's buffer is half of
// SortBudgetArcs, so A arcs spill as runs of a_i = SortBudgetArcs/2 arcs
// and a remainder; each run is written once and read once, ceil(8*a_i/B)
// blocks either way, and the only other counted I/O is writing the two
// tables front to back and then their checksum sidecar: an 8-byte header
// and 4 bytes per 512-byte granule of each table. Moving runs a block per
// call changed none of it.
func TestBuildIOLaw(t *testing.T) {
	edges := gen.ErdosRenyi(400, 3000, 705)
	mem := gen.Build(edges)
	var arcs int64 // sorted before duplicates go: two per edge that is no loop
	for _, e := range edges {
		if e.U != e.V {
			arcs += 2
		}
	}
	for _, blockSize := range []int{512, 4096} {
		for _, budget := range []int{200, 1026, 2 * int(arcs), 0} {
			ctr := stats.NewIOCounter(blockSize)
			base := filepath.Join(t.TempDir(), "g")
			err := Build(base, SliceSource(edges), BuildOptions{N: mem.NumNodes(), SortBudgetArcs: budget, IO: ctr})
			if err != nil {
				t.Fatal(err)
			}
			B := int64(blockSize)
			blocks := func(bytes int64) int64 { return (bytes + B - 1) / B }
			var runBlocks int64
			if run := int64(budget / 2); budget > 0 && run <= arcs {
				runBlocks = arcs / run * blocks(8*run)
				runBlocks += blocks(8 * (arcs % run))
			}
			nt, et := int64(mem.NumNodes())*storage.NodeRecordSize, mem.NumArcs()*storage.ArcSize
			tables := blocks(nt) + blocks(et)
			sidecar := blocks(8 + 4*((nt+511)/512+(et+511)/512))
			if got := ctr.Snapshot(); got.Reads != runBlocks || got.Writes != runBlocks+tables+sidecar {
				t.Fatalf("B=%d budget=%d: reads %d writes %d, want %d run blocks each way + %d table and %d sidecar blocks written",
					blockSize, budget, got.Reads, got.Writes, runBlocks, tables, sidecar)
			}
		}
	}
}

// TestDiskParityAllVariants runs each semi-external variant on disk and
// in memory and requires identical cores (and, for SemiCore*, counters):
// the backends must be observationally equivalent. On the default open
// every variant runs the printed schedule, so iteration and node
// computation counts must be identical too. On a cached open
// (SemiCore*/cached) SemiCore* recomputes resident nodes behind its
// cursor at once and only its results must match.
func TestDiskParityAllVariants(t *testing.T) {
	mem := gen.Build(gen.WebGraph(7, 5, 6, 20, 703))
	base := filepath.Join(t.TempDir(), "g")
	if err := WriteCSR(base, mem, nil); err != nil {
		t.Fatal(err)
	}
	want := verify.CoresByRepeatedRemoval(mem)
	wantCnt := verify.CntFor(mem, want)
	for _, tc := range []struct {
		name   string
		run    func(graph.Source, *semicore.Options) (*semicore.Result, error)
		cached bool // open through a cache of the caller's; else the printed schedule
	}{
		{"SemiCore", semicore.SemiCore, false},
		{"SemiCore+", semicore.SemiCorePlus, false},
		{"SemiCore*", semicore.SemiCoreStar, false},
		{"SemiCore*/cached", semicore.SemiCoreStar, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctr := stats.NewIOCounter(0)
			var g *storage.Graph
			var err error
			if tc.cached {
				g, err = storage.OpenCached(base, ctr, storage.NewBlockCache(64, ctr.BlockSize()))
			} else {
				g, err = storage.Open(base, ctr)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			disk, err := tc.run(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			inmem, err := tc.run(mem, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.cached && disk.Stats.Iterations != inmem.Stats.Iterations {
				t.Fatalf("iterations: disk %d, memory %d", disk.Stats.Iterations, inmem.Stats.Iterations)
			}
			if !tc.cached && disk.Stats.NodeComputations != inmem.Stats.NodeComputations {
				t.Fatalf("computations: disk %d, memory %d",
					disk.Stats.NodeComputations, inmem.Stats.NodeComputations)
			}
			for v := range want {
				if disk.Core[v] != want[v] || inmem.Core[v] != want[v] {
					t.Fatalf("core(%d): disk %d, memory %d, want %d",
						v, disk.Core[v], inmem.Core[v], want[v])
				}
				if disk.Cnt != nil && (disk.Cnt[v] != wantCnt[v] || inmem.Cnt[v] != wantCnt[v]) {
					t.Fatalf("cnt(%d): disk %d, memory %d, want %d",
						v, disk.Cnt[v], inmem.Cnt[v], wantCnt[v])
				}
			}
		})
	}
}
