// Package dyngraph provides the dynamic graph the maintenance algorithms
// run on: an immutable on-disk graph plus an in-memory buffer of recently
// inserted and deleted edges, exactly the "Graph Maintenance" scheme of
// Section V — "we allow a memory buffer to maintain the latest inserted /
// deleted edges ... when the buffer is full, we update the graph on disk
// and clear the buffer. Each time we load nbr(v) ... we also obtain the
// inserted / deleted edges for v from the memory buffer".
package dyngraph

import (
	"fmt"
	"os"

	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Options tunes a dynamic graph.
type Options struct {
	// BufferArcs is the buffered-arc capacity that triggers automatic
	// compaction (each logical edge buffers two arcs); non-positive
	// selects 1<<16.
	BufferArcs int
	// Mem, when non-nil, receives the buffer's model allocation.
	Mem *stats.MemModel
}

// Graph is a disk graph with a write buffer overlay.
type Graph struct {
	disk    *storage.Graph
	base    string
	ctr     *stats.IOCounter
	ins     map[uint32][]uint32 // sorted inserted neighbours
	del     map[uint32][]uint32 // sorted deleted neighbours
	bufArcs int
	limit   int
	arcs    int64 // current logical arc count
	mem     *stats.MemModel
	scratch []uint32
	// Compactions counts buffer flushes to disk.
	Compactions int
}

// Open attaches a dynamic view to the graph stored at base. All I/O —
// reads through the overlay and compaction writes — is charged to ctr.
func Open(base string, ctr *stats.IOCounter, opts Options) (*Graph, error) {
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	dg, err := storage.Open(base, ctr)
	if err != nil {
		return nil, err
	}
	limit := opts.BufferArcs
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Graph{
		disk:  dg,
		base:  base,
		ctr:   ctr,
		ins:   make(map[uint32][]uint32),
		del:   make(map[uint32][]uint32),
		limit: limit,
		arcs:  dg.NumArcs(),
		mem:   opts.Mem,
	}, nil
}

// Close releases the disk files. If the session never compacted, pending
// buffered edits are discarded and the on-disk graph is exactly as
// opened; but if a compaction already rewrote the files mid-session,
// discarding the remaining buffer would leave a torn state (early edits
// applied, late ones lost), so Close flushes the buffer first in that
// case.
func (g *Graph) Close() error {
	if g.Compactions > 0 && g.bufArcs > 0 {
		if err := g.Compact(); err != nil {
			g.disk.Close()
			return err
		}
	}
	return g.disk.Close()
}

// NumNodes reports n. The node set is fixed at open time (the
// semi-external model keeps per-node state in memory, so node arrivals
// are a re-build, not a buffered update).
func (g *Graph) NumNodes() uint32 { return g.disk.NumNodes() }

// NumArcs reports the current logical arc count (disk plus buffer).
func (g *Graph) NumArcs() int64 { return g.arcs }

// NumEdges reports the current logical undirected edge count.
func (g *Graph) NumEdges() int64 { return g.arcs / 2 }

// BufferedArcs reports the arcs currently in the buffer.
func (g *Graph) BufferedArcs() int { return g.bufArcs }

// IOCounter exposes the counter shared by overlay reads and compactions.
func (g *Graph) IOCounter() *stats.IOCounter { return g.ctr }

// HasEdge reports whether {u,v} is currently present. It consults the
// buffer first and falls back to one indexed disk read.
func (g *Graph) HasEdge(u, v uint32) (bool, error) {
	if Contains(g.del[u], v) {
		return false, nil
	}
	if Contains(g.ins[u], v) {
		return true, nil
	}
	nbrs, err := g.disk.Neighbors(u, g.scratch[:0])
	g.scratch = nbrs[:0]
	if err != nil {
		return false, err
	}
	return Contains(nbrs, v), nil
}

// InsertEdge buffers the insertion of {u,v}. Inserting an existing edge
// or a self-loop is an error. The buffer is compacted to disk when full.
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
// error.
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
	g.bufArcs += 2
	g.noteBufferSize()
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
	g.bufArcs -= 2
	g.noteBufferSize()
}

func (g *Graph) noteBufferSize() {
	if g.mem != nil {
		// 4 bytes per buffered arc plus map-entry overhead, modelled flat.
		g.mem.Alloc("dyngraph/buffer", int64(g.bufArcs)*12)
	}
}

func (g *Graph) maybeCompact() error {
	if g.bufArcs <= g.limit {
		return nil
	}
	return g.Compact()
}

// Compact merges the buffer into the disk tables: one sequential read of
// the old graph, one sequential write of the new one (both counted), then
// an atomic swap. The buffer is cleared.
func (g *Graph) Compact() error {
	if g.bufArcs == 0 {
		return nil
	}
	tmp := g.base + ".compact"
	b, err := storage.NewBuilder(tmp, g.NumNodes(), g.ctr)
	if err != nil {
		return err
	}
	err = g.Scan(0, g.NumNodes()-1, nil, func(v uint32, nbrs []uint32) error {
		return b.AppendList(v, nbrs)
	})
	if err != nil {
		b.Abort()
		return err
	}
	if err := b.Close(); err != nil {
		return err
	}
	if err := g.disk.Close(); err != nil {
		return err
	}
	for _, ext := range []string{".meta", ".nt", ".et"} {
		if err := os.Rename(tmp+ext, g.base+ext); err != nil {
			return fmt.Errorf("dyngraph: swapping %s: %w", ext, err)
		}
	}
	dg, err := storage.Open(g.base, g.ctr)
	if err != nil {
		return err
	}
	g.disk = dg
	g.ins = make(map[uint32][]uint32)
	g.del = make(map[uint32][]uint32)
	g.bufArcs = 0
	g.noteBufferSize()
	g.Compactions++
	return nil
}

// Neighbors returns the merged adjacency of v, appending into buf.
func (g *Graph) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
	disk, err := g.disk.Neighbors(v, g.scratch[:0])
	g.scratch = disk[:0]
	if err != nil {
		return nil, err
	}
	return Merge(disk, g.ins[v], g.del[v], buf), nil
}

// Degree reports the merged degree of v (one indexed node-table read plus
// buffer arithmetic).
func (g *Graph) Degree(v uint32) (uint32, error) {
	d, err := g.disk.Degree(v)
	if err != nil {
		return 0, err
	}
	return uint32(int64(d) + int64(len(g.ins[v])) - int64(len(g.del[v]))), nil
}

// ScanDegrees implements graph.Source over the merged view.
func (g *Graph) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	return g.disk.ScanDegrees(func(v uint32, d uint32) error {
		return fn(v, uint32(int64(d)+int64(len(g.ins[v]))-int64(len(g.del[v]))))
	})
}

// Scan implements graph.Source over the merged view.
func (g *Graph) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	cur := vmax
	return g.ScanDynamic(vmin, func() uint32 { return cur }, want, fn)
}

// ScanDynamic implements graph.Source over the merged view.
func (g *Graph) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return g.disk.ScanDynamic(vmin, vmaxFn, want, overlaid(g.ins, g.del, fn))
}

var _ graph.Source = (*Graph)(nil)
