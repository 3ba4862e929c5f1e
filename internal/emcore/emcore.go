// Package emcore implements the EMCore baseline (Algorithm 2), the
// partition-based external-memory core decomposition of Cheng et al.
// [ICDE'11] that the paper argues against. The graph is divided into
// disk-resident partitions; rounds proceed top-down over core-number
// ranges [kl, ku], loading every partition that contains a candidate node,
// peeling the loaded subgraph with deposited degrees from already-
// finalised nodes, and writing shrunken partitions back to disk.
//
// Two properties the paper criticises are reproduced by construction:
// the memory bound cannot be enforced (when ku is small almost every
// partition holds a candidate, so the load set approaches the whole
// graph; if even the minimal load set exceeds the budget it is loaded
// anyway), and every round performs write I/O to re-partition.
//
// Deviation from Cheng et al.: partitions are contiguous ranges of the
// graph's layout with an arc budget rather than the original clustering
// heuristic — a partition takes nodes in the order a scan visits them
// (graph.Source.Positions) and closes once it holds PartitionArcs arcs, the last
// one at n with fewer. This keeps the
// baseline honest (same asymptotics, same failure mode) without
// importing a second paper's partitioner; see docs/ARCHITECTURE.md,
// "Deviations from the paper".
//
// Partition files are written through storage.BlockWriter and read back
// through a storage.Reader held to the CRC32C of every block their
// writer flushed, so a damaged partition fails the run.
package emcore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Options tunes EMCore.
type Options struct {
	// MemoryBudgetArcs caps the arcs intended to be in memory at once;
	// non-positive selects NumArcs/4 (so a healthy run needs several
	// rounds). The cap is a target, not a guarantee — matching the
	// paper's critique.
	MemoryBudgetArcs int64
	// PartitionArcs is the target arcs per partition; non-positive
	// selects MemoryBudgetArcs/8.
	PartitionArcs int64
	// TempDir holds partition files; empty uses the OS temp dir.
	TempDir string
	// IO receives partition read/write accounting; nil allocates one.
	IO *stats.IOCounter
	// Mem receives the model-memory ledger; nil allocates one.
	Mem *stats.MemModel
}

// Result carries the decomposition and EMCore-specific measurements.
type Result struct {
	Core  []uint32
	Stats stats.RunStats
	// Rounds is the number of [kl,ku] ranges processed.
	Rounds int
	// PeakLoadedArcs is the largest arc count simultaneously loaded,
	// the quantity whose unboundedness motivates the paper.
	PeakLoadedArcs int64
}

// partition is one disk-resident range of the layout. Its file is
// rewritten every round it is loaded in, alternately under two names.
type partition struct {
	hi    uint32 // positions [previous partition's hi, hi)
	arcs  int64  // arcs currently stored in the file
	paths [2]string
	cur   int      // which of paths holds the records
	crcs  []uint32 // the CRC32C of each block of the file
}

// Decompose runs EMCore over an on-disk graph.
func Decompose(src *storage.Graph, opts Options) (*Result, error) {
	start := time.Now()
	n := src.NumNodes()
	ctr := opts.IO
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	mem := opts.Mem
	if mem == nil {
		mem = stats.NewMemModel()
	}
	budget := opts.MemoryBudgetArcs
	if budget <= 0 {
		budget = src.NumArcs() / 4
	}
	if budget < 1024 {
		budget = 1024
	}
	partArcs := opts.PartitionArcs
	if partArcs <= 0 {
		partArcs = budget / 8
	}
	if partArcs < 256 {
		partArcs = 256
	}
	dir := opts.TempDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "emcore")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	res := &Result{Core: make([]uint32, n)}
	res.Stats.Algorithm = "EMCore"
	if n == 0 {
		res.Stats.Duration = time.Since(start)
		return res, nil
	}

	// Global node state (EMCore, like the original, keeps O(n) arrays:
	// upper bounds, deposited degrees, finalised flags; and, in place of
	// a map per load, each node's index in the loaded subgraph).
	ub := make([]uint32, n)
	deposit := make([]int32, n)
	finalized := make([]bool, n)
	local := slices.Repeat([]int32{-1}, int(n)) // load's index of Gmem
	mem.Alloc("emcore/ub", int64(n)*4)
	mem.Alloc("emcore/deposit", int64(n)*4)
	mem.Alloc("emcore/core", int64(n)*4)
	mem.Alloc("emcore/finalized", int64(n))
	mem.Alloc("emcore/local", int64(n)*4)
	defer func() {
		mem.Free("emcore/ub")
		mem.Free("emcore/deposit")
		mem.Free("emcore/core")
		mem.Free("emcore/finalized")
		mem.Free("emcore/local")
	}()

	parts, err := buildPartitions(src, dir, partArcs, ub, ctr)
	if err != nil {
		return nil, err
	}

	var ku int64 = 0
	for v := uint32(0); v < n; v++ {
		if int64(ub[v]) > ku {
			ku = int64(ub[v])
		}
	}

	remaining := int64(n)
	pmax := make([]int64, len(parts))
	for remaining > 0 {
		// Per-partition candidate bound: max ub over unfinalised nodes,
		// met in layout order from the node index, which reads nothing.
		i, p := 0, uint32(0)
		pmax[0] = -1
		err := src.ScanDegrees(func(v uint32, _ uint32) error {
			for ; p == parts[i].hi; i++ {
				pmax[i+1] = -1
			}
			p++
			if !finalized[v] && int64(ub[v]) > pmax[i] {
				pmax[i] = int64(ub[v])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Estimate kl (Algorithm 2 line 6): lower it while the selected
		// partitions still fit the budget. kl = ku is always accepted
		// even when over budget — EMCore cannot bound its memory.
		kl := ku
		selArcs := func(k int64) int64 {
			var s int64
			for i, p := range parts {
				if pmax[i] >= k {
					s += p.arcs
				}
			}
			return s
		}
		for kl > 0 && selArcs(kl-1) <= budget {
			kl--
		}

		var selected []int
		for i := range parts {
			if pmax[i] >= kl {
				selected = append(selected, i)
			}
		}
		if len(selected) == 0 {
			// No candidates at or above kl; every unfinalised node has
			// ub < kl. Tighten ku and continue.
			ku = kl - 1
			if ku < 0 {
				return nil, fmt.Errorf("emcore: %d nodes unfinalised with no candidates", remaining)
			}
			continue
		}

		gmem, err := load(parts, selected, finalized, local, ctr)
		if err != nil {
			return nil, err
		}
		loadedArcs := gmem.arcs
		if loadedArcs > res.PeakLoadedArcs {
			res.PeakLoadedArcs = loadedArcs
		}
		mem.Alloc("emcore/gmem", gmem.modelBytes())

		cores := gmem.peel(deposit)
		res.Stats.NodeComputations += int64(len(gmem.nodes))

		// Finalise nodes whose in-memory core landed in [kl, ku]; their
		// edges are deposited onto surviving neighbours.
		var finalisedNow int64
		for i, v := range gmem.nodes {
			if int64(cores[i]) >= kl {
				res.Core[v] = cores[i]
				finalized[v] = true
				finalisedNow++
				remaining--
			}
		}
		for i, v := range gmem.nodes {
			if !finalized[v] {
				continue
			}
			_ = i
			for _, x := range gmem.fullAdj[i] {
				if !finalized[x] {
					deposit[x]++
				}
			}
		}
		// Tighten upper bounds of surviving loaded nodes.
		for _, v := range gmem.nodes {
			if !finalized[v] && int64(ub[v]) > kl-1 {
				ub[v] = uint32(kl - 1)
			}
		}
		mem.Free("emcore/gmem")

		// Re-partition: write surviving records back (Algorithm 2 line 13).
		for _, pi := range selected {
			if err := rewrite(&parts[pi], finalized, ctr); err != nil {
				return nil, err
			}
		}

		res.Rounds++
		res.Stats.Iterations = res.Rounds
		res.Stats.UpdatedPerIter = append(res.Stats.UpdatedPerIter, finalisedNow)
		ku = kl - 1
		if remaining > 0 && ku < 0 {
			return nil, fmt.Errorf("emcore: ku exhausted with %d nodes unfinalised", remaining)
		}
	}

	for _, p := range parts {
		os.Remove(p.paths[0])
		os.Remove(p.paths[1])
	}
	res.Stats.IO = ctr.Snapshot()
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// buildPartitions streams the source graph, in layout order, into
// partition files of contiguous positions and fills the initial upper
// bounds (ub(v) = deg(v)). A partition closes once it holds partArcs arcs;
// the last one closes at n.
func buildPartitions(src *storage.Graph, dir string, partArcs int64, ub []uint32, ctr *stats.IOCounter) ([]partition, error) {
	var parts []partition
	var w *storage.BlockWriter
	var cur partition
	var buf []byte
	flush := func(hi uint32) error {
		cur.hi = hi
		if err := w.Close(); err != nil {
			return err
		}
		cur.crcs = w.BlockCRCs()
		parts = append(parts, cur)
		w = nil
		return nil
	}
	n := src.NumNodes()
	pos := uint32(0)
	err := graph.ScanAll(src, func(v uint32, nbrs []uint32) error {
		ub[v] = uint32(len(nbrs))
		pos++
		if w == nil {
			name := filepath.Join(dir, fmt.Sprintf("part-%d", len(parts)))
			cur = partition{paths: [2]string{name + ".a", name + ".b"}}
			var err error
			w, err = storage.CreateBlockWriter(cur.paths[0], ctr)
			if err != nil {
				return err
			}
		}
		buf = appendRecord(buf[:0], v, nbrs)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if cur.arcs += int64(len(nbrs)); cur.arcs >= partArcs {
			return flush(pos)
		}
		return nil
	})
	if err == nil && w != nil {
		err = flush(n)
	}
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, err
	}
	return parts, nil
}

// gmemGraph is the loaded in-memory union of selected partitions.
type gmemGraph struct {
	nodes   []uint32   // loaded, unfinalised node ids
	adj     [][]int32  // local adjacency (indices into nodes)
	fullAdj [][]uint32 // full neighbour lists (global ids)
	arcs    int64      // arcs stored in fullAdj
}

func (g *gmemGraph) modelBytes() int64 {
	return g.arcs*8 + int64(len(g.nodes))*24
}

// load reads the selected partition files and assembles Gmem. local maps
// a node id to its index in Gmem's nodes, −1 for one not loaded: all −1
// on entry, and again on return.
func load(parts []partition, selected []int, finalized []bool, local []int32, ctr *stats.IOCounter) (*gmemGraph, error) {
	g := &gmemGraph{}
	defer func() {
		for _, v := range g.nodes {
			local[v] = -1
		}
	}()
	for _, pi := range selected {
		err := readPartition(parts[pi], ctr, func(v uint32, nbrs []uint32) error {
			if finalized[v] {
				return nil // stale record; rewrite lags finalisation
			}
			local[v] = int32(len(g.nodes))
			g.nodes = append(g.nodes, v)
			g.fullAdj = append(g.fullAdj, append([]uint32(nil), nbrs...))
			g.arcs += int64(len(nbrs))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Second pass: resolve local adjacency (edges between loaded,
	// unfinalised nodes).
	g.adj = make([][]int32, len(g.nodes))
	for i := range g.nodes {
		for _, x := range g.fullAdj[i] {
			if finalized[x] {
				continue
			}
			if j := local[x]; j >= 0 {
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	return g, nil
}

// peel runs bin-sort peeling over Gmem where each node's starting degree
// is its deposited degree (edges to finalised nodes, which survive every
// k level considered) plus its loaded degree.
func (g *gmemGraph) peel(deposit []int32) []uint32 {
	nn := len(g.nodes)
	deg := make([]uint32, nn)
	maxDeg := uint32(0)
	for i, v := range g.nodes {
		deg[i] = uint32(len(g.adj[i])) + uint32(deposit[v])
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	bin := make([]uint32, maxDeg+2)
	for i := 0; i < nn; i++ {
		bin[deg[i]]++
	}
	var startIdx uint32
	for d := uint32(0); d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = startIdx
		startIdx += c
	}
	vert := make([]uint32, nn)
	pos := make([]uint32, nn)
	for i := 0; i < nn; i++ {
		pos[i] = bin[deg[i]]
		vert[pos[i]] = uint32(i)
		bin[deg[i]]++
	}
	for d := maxDeg; d >= 1; d-- {
		bin[d] = bin[d-1]
	}
	if int(maxDeg+1) < len(bin) {
		bin[maxDeg+1] = uint32(nn)
	}
	bin[0] = 0

	core := deg
	for i := 0; i < nn; i++ {
		v := vert[i]
		for _, u := range g.adj[v] {
			if core[u] > core[v] {
				du, pu := core[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if uint32(u) != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, uint32(u)
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}

// appendRecord appends v's partition record to b: v, its degree and its
// neighbours, each a little-endian uint32.
func appendRecord(b []byte, v uint32, nbrs []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, v)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nbrs)))
	for _, x := range nbrs {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// rewrite rebuilds a partition file without the finalised nodes'
// records, under its other name: from the partition's second rewrite on,
// that truncates the file the round before read, so no round creates a
// file or renames one.
func rewrite(p *partition, finalized []bool, ctr *stats.IOCounter) error {
	next := 1 - p.cur
	w, err := storage.CreateBlockWriter(p.paths[next], ctr)
	if err != nil {
		return err
	}
	var arcs int64
	var buf []byte
	err = readPartition(*p, ctr, func(v uint32, nbrs []uint32) error {
		if finalized[v] {
			return nil
		}
		buf = appendRecord(buf[:0], v, nbrs)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		arcs += int64(len(nbrs))
		return nil
	})
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	p.cur, p.arcs, p.crcs = next, arcs, w.BlockCRCs()
	return nil
}

// readPartition streams (node, neighbours) records from a partition file
// through a storage.Reader held to its writer's checksums.
func readPartition(p partition, ctr *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	rd, err := storage.OpenReader(p.paths[p.cur], p.crcs, ctr)
	if err != nil {
		return err
	}
	defer rd.Close()
	var nbrs []uint32
	for {
		hdr, err := rd.Next(8)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		v, deg := binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
		raw, err := rd.Next(4 * int(deg))
		if err != nil {
			return err
		}
		nbrs = nbrs[:0]
		for i := range deg {
			nbrs = append(nbrs, binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if err := fn(v, nbrs); err != nil {
			return err
		}
	}
}
