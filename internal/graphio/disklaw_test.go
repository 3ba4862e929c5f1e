package graphio_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/verify"
)

func TestMain(m *testing.M) { pins.Main(m) }

// TestSemiCoreIOLaw pins Theorem 4.2's I/O complexity as an exact law of
// the implementation: the node table is read once, into memory, and
// SemiCore performs l full sequential scans of the edge table, so it
// reads ceil(nodeTableBytes/B) + l * ceil(edgeTableBytes/B) blocks, the
// tables' bytes being the encoded records' and lists' (the header's
// ntbytes and etbytes), on
// an edge table several times the size of the frames it reads through
// (testutil.SpillFrames: as many times as the 4-byte table was the
// default 64), which therefore carry no block from one scan to the
// next. At B=512 the open reads the checksum sidecar and leaves the node
// table to the degree-initialisation pass. At B=64, no whole number of
// the sidecar's 512-byte granules, the open is the verifying pass over
// both tables, which reads the node table into memory on the way: the
// decomposition then reads only its l scans. The open's and the
// decomposition's reads are pinned.
func TestSemiCoreIOLaw(t *testing.T) {
	mem := gen.Build(gen.Social(4000, 3, 10, 9, 701))
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, mem, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockSize := range []int{64, 512} {
		frames := testutil.SpillFrames(t, base, blockSize, float64(4*mem.NumArcs())/float64(64*blockSize))
		t.Logf("B=%d: %d frames", blockSize, frames)
		ctr := stats.NewIOCounter(blockSize)
		g, err := storage.Open(base, ctr, storage.NewBlockCache(frames, blockSize))
		if err != nil {
			t.Fatal(err)
		}
		opened := ctr.Reads()
		res, err := semicore.SemiCore(g, nil)
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		B := int64(blockSize)
		blocks := func(bytes int64) int64 { return (bytes + B - 1) / B }
		nt := blocks(meta.NtBytes)
		et := blocks(meta.EtBytes)
		sidecar, err := os.Stat(base + ".crc")
		if err != nil {
			t.Fatal(err)
		}
		wantOpen, wantNt := blocks(sidecar.Size()), nt
		if blockSize == 64 {
			wantOpen, wantNt = nt+et, 0
		}
		want := wantNt + int64(res.Stats.Iterations)*et
		got := ctr.Reads() - opened
		if opened != wantOpen || got != want {
			t.Fatalf("B=%d: the open read %d, want %d; SemiCore read %d, want %d (l=%d iterations)",
				blockSize, opened, wantOpen, got, want, res.Stats.Iterations)
		}
		leg := fmt.Sprintf("B=%d.", blockSize)
		pins.Check(t, leg+"open.reads", opened)
		pins.Check(t, leg+"SemiCore.reads", got)
	}
}

// TestBuildIOLaw pins construction's cost in the same model: Build is one
// sort, sequential passes over one scratch table and one copy. The
// sorter's buffer is half of SortBudgetArcs, so A arcs spill as runs of
// a_i = SortBudgetArcs/2 arcs and a remainder; each run is written once
// and read once, ceil(8*a_i/B) blocks either way, and a run spilled
// before the last arc came in is written and read once more: spilled
// unsorted, since the degree order it is sorted under is known only then,
// and read back to be sorted. The merged stream is written as a scratch
// table in that order, which is opened once, through frames of the sort
// budget's bytes: its sidecar read at the open, its node table by the
// decomposition's first use, and its edge table by the decomposition,
// the peel and the copy, every block at least once and exactly once when
// the frames hold the table. Then the target's two tables and sidecar
// are written in the peeling order. A sidecar is an 8-byte header and 4
// bytes per 512-byte granule of each table, the tables' bytes being the
// header's ntbytes and etbytes. The scratch's edge table is the target's
// bytes (the lists are the same); its node table differs from the
// target's only in the ids' deltas its records lead with. Every count is
// exact: the law's where the frames hold the scratch edge table, and
// where they do not, the edge-table reads of the three passes over it are
// pinned, with the blocks of the target's tables and sidecar.
func TestBuildIOLaw(t *testing.T) {
	edges := gen.ErdosRenyi(400, 3000, 705)
	mem := gen.Build(edges)
	var arcs int64 // sorted before duplicates go: two per edge that is no loop
	rawDeg := make([]uint32, mem.NumNodes())
	for _, e := range edges {
		if e.U != e.V {
			arcs += 2
			rawDeg[e.U]++
			rawDeg[e.V]++
		}
	}
	stream := make([]uint32, mem.NumNodes()) // raw degree ascending, ties by id
	for v := range stream {
		stream[v] = uint32(v)
	}
	slices.SortStableFunc(stream, func(u, v uint32) int { return cmp.Compare(rawDeg[u], rawDeg[v]) })
	for _, blockSize := range []int{512, 4096} {
		for _, budget := range []int{200, 1026, 2 * int(arcs), 0} {
			ctr := stats.NewIOCounter(blockSize)
			base := filepath.Join(t.TempDir(), "g")
			err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: mem.NumNodes(), SortBudgetArcs: budget, IO: ctr})
			if err != nil {
				t.Fatal(err)
			}
			B := int64(blockSize)
			blocks := func(bytes int64) int64 { return (bytes + B - 1) / B }
			// runBlocks are the runs as the merge reads them, spilled ones
			// the blocks they were first written in, unsorted, and then
			// read back to be sorted.
			var runBlocks, spilled int64
			if run := int64(budget / 2); budget > 0 && run <= arcs {
				spilled = arcs / run * blocks(8*run)
				runBlocks = spilled + blocks(8*(arcs%run))
			}
			meta, err := storage.ReadMeta(base)
			if err != nil {
				t.Fatal(err)
			}
			nt, et := meta.NtBytes, meta.EtBytes
			sidecar := func(nt int64) int64 { return blocks(8 + 4*((nt+511)/512+(et+511)/512)) }
			tables := blocks(nt) + blocks(et) + sidecar(nt)
			scratchNt := nt - idDeltaBytes(layout(t, base)) + idDeltaBytes(stream)
			scratch := blocks(scratchNt) + blocks(et) + sidecar(scratchNt)
			got := ctr.Snapshot()
			etReads := got.Reads - runBlocks - spilled - sidecar(scratchNt) - blocks(scratchNt)
			frames := max(1, 8*int64(cmp.Or(budget, 1<<20))/B) // the default budget is 1<<20 arcs
			if got.Writes != runBlocks+spilled+scratch+tables || etReads < blocks(et) || (frames >= blocks(et) && etReads != blocks(et)) {
				t.Fatalf("B=%d budget=%d: reads %d writes %d, want %d run blocks and %d more of spilled runs each way, the scratch's %d blocks written and its sidecar and node table read, %d edge-table blocks read (%d frames) and %d target blocks written",
					blockSize, budget, got.Reads, got.Writes, runBlocks, spilled, scratch, blocks(et), frames, tables)
			}
			pins.Check(t, fmt.Sprintf("B=%d.table_blocks", blockSize), tables)
			if frames < blocks(et) {
				pins.Check(t, fmt.Sprintf("B=%d.budget=%d.scratch_reads", blockSize, budget), etReads)
			}
		}
	}
}

// TestBuildLaysOutInPeelingOrder holds Build's layout to what makes it a
// peeling order, against IMCore's cores: along the positions the cores
// do not decrease, and each node has at most core(v) neighbours after
// it. Then SemiCore* from the degrees converges in one pass (ARCHITECTURE,
// "One pass along a peeling order"), which reads each table once:
// ceil(nt/B) + ceil(et/B) blocks after the open, through 16 frames of
// 1 KiB. The fixtures are every family of testutil.Families at three
// seeds, whose tables Build writes, and the gates' graph. Build keeps the
// ring lattices in id order (idLocal), so they are checked for that, and
// in a peeling order under shuffled ids. A Build that copies the lists by
// its core estimate, as it did before, fails on every fixture but the
// lattices.
func TestBuildLaysOutInPeelingOrder(t *testing.T) {
	check := func(t *testing.T, edges []graph.Edge, idLocal bool) {
		csr := gen.Build(edges)
		base := filepath.Join(t.TempDir(), "g")
		if err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: csr.NumNodes()}); err != nil {
			t.Fatal(err)
		}
		meta, err := storage.ReadMeta(base)
		if err != nil {
			t.Fatal(err)
		}
		if idLocal != meta.IDOrder {
			t.Fatalf("header %+v; want id order exactly for the lattice", meta)
		}
		if idLocal {
			return
		}
		core := imcore.Decompose(csr, nil).Core
		order := layout(t, base)
		pos := make([]uint32, len(order))
		for p, v := range order {
			pos[v] = uint32(p)
		}
		for p, v := range order {
			if p > 0 && core[v] < core[order[p-1]] {
				t.Fatalf("position %d: core(%d) = %d after core(%d) = %d", p, v, core[v], order[p-1], core[order[p-1]])
			}
			later := uint32(0)
			for _, u := range csr.Neighbors(v) {
				if pos[u] > uint32(p) {
					later++
				}
			}
			if later > core[v] {
				t.Fatalf("node %d (core %d) has %d neighbours after it", v, core[v], later)
			}
		}
		const B, frames = 1024, 16
		ctr := stats.NewIOCounter(B)
		g, err := storage.Open(base, ctr, storage.NewBlockCache(frames, B))
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		opened := ctr.Reads()
		res, err := semicore.SemiCoreStar(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Core, core) {
			t.Fatal("SemiCore* disagrees with IMCore")
		}
		want := (meta.NtBytes+B-1)/B + (meta.EtBytes+B-1)/B
		if got := ctr.Reads() - opened; res.Stats.Iterations != 1 || got != want {
			t.Fatalf("SemiCore* took %d passes and %d reads; want 1 pass and %d reads", res.Stats.Iterations, got, want)
		}
	}
	for _, fam := range testutil.Families {
		for seed := int64(1); seed <= 3; seed++ {
			edges := fam.Edges(seed)
			lattice := fam.Name == "smallworld"
			t.Run(fmt.Sprintf("%s/seed=%d", fam.Name, seed), func(t *testing.T) { check(t, edges, lattice) })
			if lattice {
				perm := rand.New(rand.NewSource(seed)).Perm(int(gen.Build(edges).NumNodes()))
				shuffled := make([]graph.Edge, len(edges))
				for i, e := range edges {
					shuffled[i] = graph.Edge{U: uint32(perm[e.U]), V: uint32(perm[e.V])}
				}
				t.Run(fmt.Sprintf("%s-shuffled/seed=%d", fam.Name, seed), func(t *testing.T) { check(t, shuffled, false) })
			}
		}
	}
	t.Run("gate", func(t *testing.T) { check(t, testutil.GateEdges(), false) })
}

// layout returns the order the tables at base store the lists in.
func layout(t *testing.T, base string) []uint32 {
	t.Helper()
	g, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	order := make([]uint32, g.NumNodes())
	for v := range order {
		order[graph.Pos(g.Positions(), uint32(v))] = uint32(v)
	}
	return order
}

// idDeltaBytes is what a node table in order spends on leading each
// record with its id's delta: none in id order (idorder=1), and a zigzag
// varint a record in any other.
func idDeltaBytes(order []uint32) int64 {
	var sum int64
	prev, identity := int64(-1), true
	for p, v := range order {
		sum += int64(len(binary.AppendVarint(nil, int64(v)-prev)))
		prev, identity = int64(v), identity && v == uint32(p)
	}
	if identity {
		return 0
	}
	return sum
}

// TestDiskParityAllVariants runs each semi-external variant on disk and
// in memory and requires identical cores (and, for SemiCore*, counters):
// the backends must be observationally equivalent. SemiCore and
// SemiCore+ run the printed schedule on both, so their iteration and node
// computation counts must be identical too. On disk SemiCore* recomputes
// resident nodes behind its cursor at once (the in-memory CSR has no
// cache), so only its results must match, whether it opens through the
// graph's own cache or, as SemiCore*/cached, through one of the caller's.
func TestDiskParityAllVariants(t *testing.T) {
	mem := gen.Build(gen.WebGraph(7, 5, 6, 20, 703))
	base := filepath.Join(t.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, mem, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	want := verify.CoresByRepeatedRemoval(mem)
	wantCnt := verify.CntFor(mem, want)
	for _, tc := range []struct {
		name     string
		run      func(graph.Source, *semicore.Options) (*semicore.Result, error)
		revisits bool // off the printed schedule on disk
		cached   bool // open through a cache of the caller's; else the graph's own
	}{
		{"SemiCore", semicore.SemiCore, false, false},
		{"SemiCore+", semicore.SemiCorePlus, false, false},
		{"SemiCore*", semicore.SemiCoreStar, true, false},
		{"SemiCore*/cached", semicore.SemiCoreStar, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctr := stats.NewIOCounter(0)
			var cache *storage.BlockCache
			if tc.cached {
				cache = storage.NewBlockCache(64, ctr.BlockSize())
			}
			g, err := storage.Open(base, ctr, cache)
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
			if !tc.revisits && disk.Stats.Iterations != inmem.Stats.Iterations {
				t.Fatalf("iterations: disk %d, memory %d", disk.Stats.Iterations, inmem.Stats.Iterations)
			}
			if !tc.revisits && disk.Stats.NodeComputations != inmem.Stats.NodeComputations {
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
