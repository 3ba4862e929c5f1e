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
// at a path prefix, read through the graph's own checksummed block cache
// of Options.CacheBlocks frames (storage.Open), and folded back by one
// writer, storage.WriteGraph of a View: Compact writes a view of the
// graph's own reader, Adopt takes a checkpoint's tables. A graph and its
// views read through one reader, the base and the buffer over it. The
// buffer itself is two sorted,
// pointer-free arrays of arc keys (sorted.go), 8 B per buffered arc: a
// pin clones them, an adoption rebases them in one merge, and a fold-back
// drops them.
package dyngraph

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// DefaultBufferArcs is what a non-positive Options.BufferArcs selects.
const DefaultBufferArcs = 1 << 16

// Options tunes a dynamic graph.
type Options struct {
	// BufferArcs is the buffered-arc capacity past which the buffer is
	// folded back (each logical edge buffers two arcs).
	BufferArcs int
	// CacheBlocks is the frame count of the CLOCK cache the tables are
	// read through, which verifies each block it loads; a non-positive
	// count selects the default, 64.
	CacheBlocks int
}

// reader is the merged adjacency, a graph.Source, that a Graph serves and
// a View pins: a handle on the base tables and the buffer over it.
type reader struct {
	disk *storage.Graph
	ins  []uint64 // sorted keys of the inserted arcs (sorted.go)
	del  []uint64 // sorted keys of the deleted arcs
	arcs int64    // base plus buffer
}

// NumNodes reports n, fixed at open time: the semi-external model keeps
// per-node state in memory, so a node arrival is a re-build.
func (r *reader) NumNodes() uint32 { return r.disk.NumNodes() }

// NumArcs reports the current logical arc count (disk plus buffer).
func (r *reader) NumArcs() int64 { return r.arcs }

// Positions implements graph.Source: the tables' layout, which edits do
// not change (storage.Graph.Positions).
func (r *reader) Positions() []uint32 { return r.disk.Positions() }

// ScanDegrees implements graph.Source over the merged view.
func (r *reader) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	ins, del := newCursor(r.ins), newCursor(r.del)
	return r.disk.ScanDegrees(func(v uint32, d uint32) error {
		return fn(v, merged(d, ins.run(v), del.run(v)))
	})
}

// ScanDynamic implements graph.Source over the merged view, taking each
// node's buffered edits from the key arrays by one cursor each.
func (r *reader) ScanDynamic(pmin uint32, pmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	ci, cd := newCursor(r.ins), newCursor(r.del)
	var out []uint32
	return r.disk.ScanDynamic(pmin, pmaxFn, want, func(v uint32, disk []uint32) error {
		i, d := ci.run(v), cd.run(v)
		if len(i) == 0 && len(d) == 0 {
			return fn(v, disk)
		}
		out = merge(disk, i, d, out)
		return fn(v, out)
	})
}

// Graph is an on-disk base graph with a write buffer overlay. Its reader's
// disk is the current tables, replaced by every fold-back.
type Graph struct {
	reader
	cache   *storage.BlockCache // the frames the tables are read through, kept across fold-backs
	bufArcs atomic.Int64        // written by the owner, read by stats
	limit   int
	scratch []uint32
	// Fold-backs done and the table bytes they put in place; atomic so
	// that they may be read off the owning goroutine.
	merges, mergedBytes atomic.Int64
	adopted             bool // the tables have been a checkpoint's (Adopt)
}

// ErrStale reports an Adopt of a view pinned before the last fold-back.
var ErrStale = errors.New("dyngraph: the tables were folded back since the pin")

// removeTables unlinks whatever exists of the files at base.
func removeTables(base string) {
	for _, ext := range storage.Files {
		os.Remove(base + ext)
	}
}

// Open attaches a dynamic view to the CSR tables stored at base. All I/O —
// reads through the overlay and fold-back writes — is charged to ctr.
func Open(base string, ctr *stats.IOCounter, opts Options) (*Graph, error) {
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	removeTables(base + ".compact") // a fold-back some killed process never finished
	g := &Graph{
		limit: opts.BufferArcs,
		cache: storage.NewBlockCache(opts.CacheBlocks, ctr.BlockSize()),
	}
	if g.limit <= 0 {
		g.limit = DefaultBufferArcs
	}
	var err error
	if g.disk, err = storage.Open(base, ctr, g.cache); err != nil {
		return nil, err
	}
	g.arcs = g.disk.NumArcs()
	return g, nil
}

// Close releases the tables. The files are the caller's graph: if no
// fold-back replaced them this session, edits still buffered are
// discarded and the files are exactly as opened; once one has, discarding
// the rest would leave a torn state (early edits in the files, late ones
// lost), so the buffer is folded in first. A graph that has adopted a
// checkpoint discards them too: the checkpoints and the log it adopted
// from hold them, and restore the files.
func (g *Graph) Close() error {
	var err error
	if g.FoldBacks() > 0 && !g.adopted {
		err = g.Compact()
	}
	return errors.Join(err, g.disk.Close())
}

// FoldBacks counts the times the buffer was folded into the tables, by
// Compact or by Adopt; it may be read from any goroutine.
func (g *Graph) FoldBacks() int64 { return g.merges.Load() }

// NumEdges reports the current logical undirected edge count.
func (g *Graph) NumEdges() int64 { return g.arcs / 2 }

// BufferedArcs reports the arcs currently in the buffer; unlike the rest
// of the graph it may be read from any goroutine.
func (g *Graph) BufferedArcs() int { return int(g.bufArcs.Load()) }

// DiskStats snapshots the block cache, the buffer's fill and the
// fold-backs done so far, from any goroutine.
func (g *Graph) DiskStats() *stats.DiskSnapshot {
	cs := g.cache.Stats()
	return &stats.DiskSnapshot{
		CacheBlocks:    cs.Blocks,
		CacheBlockSize: cs.BlockSize,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvictions: cs.Evictions,
		CacheHitRate:   cs.HitRate(),
		OverlayArcs:    int64(g.BufferedArcs()),
		OverlayLimit:   g.limit,
		Merges:         g.FoldBacks(),
		MergedBytes:    g.mergedBytes.Load(),
	}
}

// baseList reads the base list of v into the graph's scratch.
func (g *Graph) baseList(v uint32) ([]uint32, error) {
	l, err := g.disk.Neighbors(v, g.scratch[:0])
	g.scratch = l[:0]
	return l, err
}

// HasEdge reports whether {u,v} is currently present. It consults the
// buffer first and falls back to one indexed disk read.
func (g *Graph) HasEdge(u, v uint32) (bool, error) {
	if graph.Contains(g.del, arc(u, v)) {
		return false, nil
	}
	if graph.Contains(g.ins, arc(u, v)) {
		return true, nil
	}
	nbrs, err := g.baseList(u)
	if err != nil {
		return false, err
	}
	return graph.Contains(nbrs, v), nil
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
	if graph.Contains(g.del, arc(u, v)) {
		g.removeBuffered(&g.del, u, v)
	} else {
		g.addBuffered(&g.ins, u, v)
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
	if graph.Contains(g.ins, arc(u, v)) {
		g.removeBuffered(&g.ins, u, v)
	} else {
		g.addBuffered(&g.del, u, v)
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

// addBuffered puts both arcs of {u,v} into the key array l.
func (g *Graph) addBuffered(l *[]uint64, u, v uint32) {
	*l = graph.InsertSorted(graph.InsertSorted(*l, arc(u, v)), arc(v, u))
	g.bufArcs.Add(2)
}

// removeBuffered takes both arcs of {u,v} out of the key array l.
func (g *Graph) removeBuffered(l *[]uint64, u, v uint32) {
	*l = graph.RemoveSorted(graph.RemoveSorted(*l, arc(u, v)), arc(v, u))
	g.bufArcs.Add(-2)
}

func (g *Graph) maybeCompact() error {
	if g.BufferedArcs() <= g.limit {
		return nil
	}
	return g.Compact()
}

// Compact folds the buffer into the base and clears it: the tables merged
// with it are written whole from one verified scan (damage fails it, and
// is never laundered into new tables with valid checksums), then renamed
// over them. Reads and writes are both charged to the graph's counter.
func (g *Graph) Compact() error {
	if g.BufferedArcs() == 0 {
		return nil
	}
	if err := g.swap(func(tmp string) error {
		return storage.WriteGraph(faultfs.OS, tmp, &g.reader, g.disk.IOCounter(), false)
	}); err != nil {
		return err
	}
	g.ins, g.del = nil, nil
	g.bufArcs.Store(0)
	return nil
}

// Adopt folds the buffer back without writing: the tables at path prefix
// tables, which hold exactly vw's adjacency (a checkpoint of it), are
// hard-linked (copied where linking fails) over the graph's, and the
// buffer keeps the edits made since the pin — O(buffer), no table read.
// A view pinned before the last fold-back is ErrStale and changes nothing.
func (g *Graph) Adopt(vw *View, tables string) error {
	if vw.merges != g.FoldBacks() {
		return ErrStale
	}
	if err := g.swap(func(tmp string) error { return storage.CopyGraph(tmp, tables, true) }); err != nil {
		return err
	}
	g.adopted = true
	// The pinned edits are in the base now: one still buffered leaves the
	// buffer, one undone since the pin is buffered as its opposite.
	g.ins, g.del = rebase(g.ins, vw.ins, vw.del, g.del), rebase(g.del, vw.del, vw.ins, g.ins)
	g.bufArcs.Store(int64(len(g.ins) + len(g.del)))
	return nil
}

// swap replaces the tables with those fill puts at <base>.compact,
// renamed over them and reopened through the same block reader. No error
// path leaves anything at <base>.compact.
func (g *Graph) swap(fill func(tmp string) error) (err error) {
	base, ctr := g.disk.Base(), g.disk.IOCounter()
	tmp := base + ".compact"
	defer func() {
		if err != nil {
			removeTables(tmp)
		}
	}()
	if err := fill(tmp); err != nil {
		return err
	}
	if err := g.disk.Close(); err != nil {
		return err
	}
	for _, ext := range storage.Files {
		if err := os.Rename(tmp+ext, base+ext); err != nil {
			return fmt.Errorf("dyngraph: swapping %s: %w", ext, err)
		}
	}
	if g.disk, err = storage.Open(base, ctr, g.cache); err != nil {
		return err
	}
	g.merges.Add(1)
	g.mergedBytes.Add(g.disk.TableBytes())
	return nil
}

// Neighbors returns the merged adjacency of v, appending into buf.
func (g *Graph) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
	disk, err := g.baseList(v)
	if err != nil {
		return nil, err
	}
	ins, del := newCursor(g.ins), newCursor(g.del)
	return merge(disk, ins.run(v), del.run(v), buf), nil
}

// Resident reports whether Neighbors(v) would read no block: v's base
// list is cached whole (storage.Graph.Resident), and its buffered edits
// are in memory anyway.
func (g *Graph) Resident(v uint32) bool { return g.disk.Resident(v) }

// Degree reports the merged degree of v: the base degree from the node
// table the tables' reader holds in memory, plus buffer arithmetic.
func (g *Graph) Degree(v uint32) (uint32, error) {
	d, err := g.disk.Degree(v)
	if err != nil {
		return 0, err
	}
	ins, del := newCursor(g.ins), newCursor(g.del)
	return merged(d, ins.run(v), del.run(v)), nil
}

var _ graph.Source = (*Graph)(nil)
