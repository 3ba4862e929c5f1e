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
// decided here once. What differs between deployments is only how the
// immutable base is laid out and read, behind Base: the CSR table pair
// through one-block buffers (csr.go, what Open attaches), or
// degree-ordered partition files behind a block cache
// (internal/diskengine).
package dyngraph

import (
	"fmt"
	"sync/atomic"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// Base is the immutable on-disk graph under a Graph's update buffer: a
// driver for one file layout. Its reads describe the graph as last
// rewritten — a driver receives the buffer in Rewrite and Close, it never
// keeps one. All calls come from the goroutine that owns the Graph.
type Base interface {
	// Source scans the base lists; ErrStop ends a scan as in any Source.
	graph.Source
	// NumArcs reports the arcs stored in the base.
	NumArcs() int64
	// Neighbors reads the base list of v, appending into buf.
	Neighbors(v uint32, buf []uint32) ([]uint32, error)
	// Degree reads the base degree of v.
	Degree(v uint32) (uint32, error)
	// Rewrite folds the buffered edits into the base: afterwards every
	// read answers for the base lists merged with ins and del (Merge).
	// Views pinned before keep reading the files they pinned.
	Rewrite(ins, del map[uint32][]uint32) error
	// Pin captures the base as it stands, without reading it.
	Pin() (BaseView, error)
	// Close releases the base. ins and del are the edits still buffered:
	// a driver whose files belong to the caller decides here whether
	// they may be dropped (see csrTables.Close), a driver serving a
	// private projection of them just discards it.
	Close(ins, del map[uint32][]uint32) error
}

// BaseView is a pinned base: the files that were current at Pin, kept
// readable until Release however often the base is rewritten meanwhile.
type BaseView interface {
	// Scan calls fn once per node in id order with its base list, valid
	// during the call only, from any goroutine. Every block it reads is
	// verified against the checksum recorded when it was written and
	// charged to io — never to the counter or cache the base serves from.
	Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error
	Release()
}

// Options tunes a dynamic graph.
type Options struct {
	// BufferArcs is the buffered-arc capacity that triggers an automatic
	// rewrite of the base (each logical edge buffers two arcs);
	// non-positive selects 1<<16.
	BufferArcs int
}

// Graph is an on-disk base graph with a write buffer overlay.
type Graph struct {
	base    Base
	ins     map[uint32][]uint32 // sorted inserted neighbours
	del     map[uint32][]uint32 // sorted deleted neighbours
	bufArcs atomic.Int64        // written by the owner, read by stats
	limit   int
	arcs    int64 // current logical arc count
	scratch []uint32
	// Compactions counts buffer flushes to disk.
	Compactions int
}

// New layers an empty update buffer over base, which the graph owns from
// here on.
func New(base Base, opts Options) *Graph {
	limit := opts.BufferArcs
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Graph{
		base:  base,
		ins:   make(map[uint32][]uint32),
		del:   make(map[uint32][]uint32),
		limit: limit,
		arcs:  base.NumArcs(),
	}
}

// Open attaches a dynamic view to the CSR tables stored at base. All I/O —
// reads through the overlay and compaction writes — is charged to ctr.
func Open(base string, ctr *stats.IOCounter, opts Options) (*Graph, error) {
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	tables, err := openCSR(base, ctr)
	if err != nil {
		return nil, err
	}
	return New(tables, opts), nil
}

// Close releases the base, handing it the edits still buffered; what
// becomes of them is the driver's rule (Base.Close).
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

// BufferLimit reports the buffered-arc count past which the base is
// rewritten.
func (g *Graph) BufferLimit() int { return g.limit }

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

// Compact folds the buffer into the base (Base.Rewrite: the CSR tables
// are rewritten whole, partitions only where an edit landed; reads and
// writes both counted) and clears it.
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
