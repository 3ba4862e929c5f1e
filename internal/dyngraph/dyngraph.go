// Package dyngraph provides the dynamic graph the maintenance algorithms
// run on: an immutable on-disk graph plus an in-memory buffer of recently
// inserted and deleted edges, exactly the "Graph Maintenance" scheme of
// Section V — "we allow a memory buffer to maintain the latest inserted /
// deleted edges ... when the buffer is full, we update the graph on disk
// and clear the buffer. Each time we load nbr(v) ... we also obtain the
// inserted / deleted edges for v from the memory buffer".
//
// Graph is the only owner of that buffer in the tree: which edits are
// accepted, how a neighbour list is the base list overlaid with them,
// when the buffer is folded back, and what a pinned View captures are
// decided here once. The base under it is one layout, the CSR table pair
// at a path prefix (csr.go), read through a block cache — storage.Open's
// few frames or, with Options.CacheBlocks, a budgeted, checksummed one —
// and folded back by one rule: rewritten whole.
package dyngraph

import (
	"fmt"
	"sync/atomic"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// Options tunes a dynamic graph.
type Options struct {
	// BufferArcs is the buffered-arc capacity that triggers an automatic
	// rewrite of the base (each logical edge buffers two arcs);
	// non-positive selects 1<<16.
	BufferArcs int
	// CacheBlocks, when positive, reads the tables through a CLOCK cache
	// of that many blocks that verifies each block it loads; otherwise
	// they are read as storage.Open reads them.
	CacheBlocks int
}

// Graph is an on-disk base graph with a write buffer overlay.
type Graph struct {
	base    *csrTables
	ins     map[uint32][]uint32 // sorted inserted neighbours
	del     map[uint32][]uint32 // sorted deleted neighbours
	bufArcs atomic.Int64        // written by the owner, read by stats
	limit   int
	arcs    int64 // current logical arc count
	scratch []uint32
	// Compactions counts buffer flushes to disk.
	Compactions int
}

// Open attaches a dynamic view to the CSR tables stored at base. All I/O —
// reads through the overlay and compaction writes — is charged to ctr.
func Open(base string, ctr *stats.IOCounter, opts Options) (*Graph, error) {
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	tables, err := openCSR(base, ctr, opts.CacheBlocks)
	if err != nil {
		return nil, err
	}
	limit := opts.BufferArcs
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Graph{
		base:  tables,
		ins:   make(map[uint32][]uint32),
		del:   make(map[uint32][]uint32),
		limit: limit,
		arcs:  tables.NumArcs(),
	}, nil
}

// Close releases the tables. Edits still buffered are discarded, unless
// a rewrite already replaced the tables (see csrTables.Close).
func (g *Graph) Close() error { return g.base.Close(g.ins, g.del) }

// NumNodes reports n. The node set is fixed at open time (the
// semi-external model keeps per-node state in memory, so node arrivals
// are a re-build, not a buffered update).
func (g *Graph) NumNodes() uint32 { return g.base.NumNodes() }

// NumArcs reports the current logical arc count (disk plus buffer).
func (g *Graph) NumArcs() int64 { return g.arcs }

// NumEdges reports the current logical undirected edge count.
func (g *Graph) NumEdges() int64 { return g.arcs / 2 }

// BufferedArcs reports the arcs currently in the buffer; unlike the rest
// of the graph it may be read from any goroutine.
func (g *Graph) BufferedArcs() int { return int(g.bufArcs.Load()) }

// DiskStats snapshots the block cache, the buffer's fill and the
// rewrites done so far, from any goroutine; nil on a graph opened
// without a cache budget.
func (g *Graph) DiskStats() *stats.DiskSnapshot {
	if g.base.cache == nil {
		return nil
	}
	cs := g.base.cache.Stats()
	return &stats.DiskSnapshot{
		CacheBlocks:    cs.Blocks,
		CacheBlockSize: cs.BlockSize,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvictions: cs.Evictions,
		CacheHitRate:   cs.HitRate(),
		OverlayArcs:    int64(g.BufferedArcs()),
		OverlayLimit:   g.limit,
		Merges:         g.base.merges.Load(),
		MergedBytes:    g.base.mergedBytes.Load(),
	}
}

// baseList reads the base list of v into the graph's scratch.
func (g *Graph) baseList(v uint32) ([]uint32, error) {
	l, err := g.base.Neighbors(v, g.scratch[:0])
	g.scratch = l[:0]
	return l, err
}

// HasEdge reports whether {u,v} is currently present. It consults the
// buffer first and falls back to one indexed disk read.
func (g *Graph) HasEdge(u, v uint32) (bool, error) {
	if Contains(g.del[u], v) {
		return false, nil
	}
	if Contains(g.ins[u], v) {
		return true, nil
	}
	nbrs, err := g.baseList(u)
	if err != nil {
		return false, err
	}
	return Contains(nbrs, v), nil
}

// InsertEdge buffers the insertion of {u,v}. Inserting an existing edge
// or a self-loop is an error and leaves the graph unchanged. The buffer
// is folded into the base when full.
func (g *Graph) InsertEdge(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	present, err := g.HasEdge(u, v)
	if err != nil {
		return err
	}
	if present {
		return fmt.Errorf("dyngraph: edge (%d,%d) already present", u, v)
	}
	// An insert cancels a buffered delete of the same edge.
	if Contains(g.del[u], v) {
		g.removeBuffered(g.del, u, v)
	} else {
		g.addBuffered(g.ins, u, v)
	}
	g.arcs += 2
	return g.maybeCompact()
}

// DeleteEdge buffers the deletion of {u,v}. Deleting an absent edge is an
// error and leaves the graph unchanged.
func (g *Graph) DeleteEdge(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	present, err := g.HasEdge(u, v)
	if err != nil {
		return err
	}
	if !present {
		return fmt.Errorf("dyngraph: edge (%d,%d) not present", u, v)
	}
	if Contains(g.ins[u], v) {
		g.removeBuffered(g.ins, u, v)
	} else {
		g.addBuffered(g.del, u, v)
	}
	g.arcs -= 2
	return g.maybeCompact()
}

func (g *Graph) checkPair(u, v uint32) error {
	n := g.NumNodes()
	if u >= n || v >= n {
		return fmt.Errorf("dyngraph: edge (%d,%d) out of range n=%d", u, v, n)
	}
	if u == v {
		return fmt.Errorf("dyngraph: self-loop (%d,%d)", u, v)
	}
	return nil
}

func (g *Graph) addBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = InsertSorted(m[u], v)
	m[v] = InsertSorted(m[v], u)
	g.bufArcs.Add(2)
}

func (g *Graph) removeBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = RemoveSorted(m[u], v)
	m[v] = RemoveSorted(m[v], u)
	if len(m[u]) == 0 {
		delete(m, u)
	}
	if len(m[v]) == 0 {
		delete(m, v)
	}
	g.bufArcs.Add(-2)
}

func (g *Graph) maybeCompact() error {
	if g.BufferedArcs() <= g.limit {
		return nil
	}
	return g.Compact()
}

// Compact folds the buffer into the base (the tables are rewritten
// whole; reads and writes both counted) and clears it.
func (g *Graph) Compact() error {
	if g.BufferedArcs() == 0 {
		return nil
	}
	if err := g.base.Rewrite(g.ins, g.del); err != nil {
		return err
	}
	g.ins = make(map[uint32][]uint32)
	g.del = make(map[uint32][]uint32)
	g.bufArcs.Store(0)
	g.Compactions++
	return nil
}

// Neighbors returns the merged adjacency of v, appending into buf.
func (g *Graph) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
	disk, err := g.baseList(v)
	if err != nil {
		return nil, err
	}
	return Merge(disk, g.ins[v], g.del[v], buf), nil
}

// merged is deg(v) in the base adjusted by v's buffered edits.
func (g *Graph) merged(v, deg uint32) uint32 {
	return uint32(int64(deg) + int64(len(g.ins[v])) - int64(len(g.del[v])))
}

// Degree reports the merged degree of v (one indexed node-record read
// plus buffer arithmetic).
func (g *Graph) Degree(v uint32) (uint32, error) {
	d, err := g.base.Degree(v)
	if err != nil {
		return 0, err
	}
	return g.merged(v, d), nil
}

// ScanDegrees implements graph.Source over the merged view.
func (g *Graph) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	return g.base.ScanDegrees(func(v uint32, d uint32) error {
		return fn(v, g.merged(v, d))
	})
}

// Scan implements graph.Source over the merged view.
func (g *Graph) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return g.ScanDynamic(vmin, func() uint32 { return vmax }, want, fn)
}

// ScanDynamic implements graph.Source over the merged view.
func (g *Graph) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return g.base.ScanDynamic(vmin, vmaxFn, want, overlaid(g.ins, g.del, fn))
}

var _ graph.Source = (*Graph)(nil)
