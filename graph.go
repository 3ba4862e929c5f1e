package kcore

import (
	"fmt"

	"kcore/internal/dyngraph"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/stats"
)

// EdgeSource streams undirected edges into Build.
type EdgeSource = graphio.EdgeSource

// SliceEdges adapts an in-memory edge slice as an EdgeSource.
func SliceEdges(edges []Edge) EdgeSource { return graphio.SliceSource(edges) }

// FileEdges adapts a whitespace-separated "u v" text file as an
// EdgeSource. Lines starting with '#' or '%' are skipped.
func FileEdges(path string) EdgeSource { return graphio.TextSource{Path: path} }

// BuildOptions tunes graph construction.
type BuildOptions struct {
	// NumNodes forces the node count; 0 derives max id + 1.
	NumNodes uint32
	// SortBudgetArcs bounds the arcs' worth of memory (8 bytes each) the
	// external sorter holds — its buffer and its sort scratch are both
	// inside the budget, half each; the build never materialises the
	// graph. 0 selects the default, 1<<20.
	SortBudgetArcs int
	// TempDir is where the external sort creates its private spill
	// directory, removed again on every path out of Build; empty uses the
	// graph's directory.
	TempDir string
}

// Build converts an edge stream into the on-disk node-table/edge-table
// format at path prefix base (three files: base.meta, base.nt, base.et,
// and the checksum sidecar base.crc Open reads in place of a pass over
// the tables). Edges are symmetrised, external-sorted and
// deduplicated; self-loops are dropped. The tables lay the nodes out in
// a peeling order (cores ascending, each node with at most its core
// number of neighbours after it; SemiCore* over a scratch copy of the
// lists gives the cores), which is the order every scan visits them, so
// a decomposition of the result converges in one pass; a graph whose ids
// already place neighbours near each other (a geometric mean id gap
// under √n) keeps id order. Node ids are unchanged.
func Build(base string, src EdgeSource, opts *BuildOptions) error {
	var o BuildOptions
	if opts != nil {
		o = *opts
	}
	return graphio.Build(base, src, graphio.BuildOptions{
		N:              o.NumNodes,
		SortBudgetArcs: o.SortBudgetArcs,
		TempDir:        o.TempDir,
	})
}

// OpenOptions tunes an opened graph handle.
type OpenOptions struct {
	// BlockSize is the I/O accounting block size B; 0 selects 4096.
	BlockSize int
	// BufferArcs caps the in-memory update buffer before edits are
	// folded into the disk graph; 0 selects a default (1<<16). (A durable
	// kcored graph folds back at it by adopting a checkpoint: see Adopt.)
	BufferArcs int
	// CacheBlocks is the frame budget of the block cache the tables are
	// read through; 0 selects the default, 64 frames — the measured
	// ruling, see docs/ARCHITECTURE.md, "Block readers". The first use
	// reads the node table into memory and checks it whole against the
	// header, so the frames hold edge blocks only, and every block a frame
	// loads is verified against a checksum the header vouches for: Open
	// reads the checksum sidecar Build writes beside the tables
	// (base.crc), or, when there is none it can hold to the header, makes
	// one pass over the tables to record them (and reads the node table
	// into memory on the way).
	CacheBlocks int
}

// Graph is a handle to an on-disk graph with a dynamic update overlay.
// All reads and fold-back writes are counted at block granularity.
type Graph struct {
	dyn  *dyngraph.Graph
	ctr  *stats.IOCounter
	base string
}

// Open attaches to the graph stored at path prefix base.
func Open(base string, opts *OpenOptions) (*Graph, error) {
	var o OpenOptions
	if opts != nil {
		o = *opts
	}
	ctr := stats.NewIOCounter(o.BlockSize)
	dyn, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: o.BufferArcs, CacheBlocks: o.CacheBlocks})
	if err != nil {
		return nil, err
	}
	return &Graph{dyn: dyn, ctr: ctr, base: base}, nil
}

// Close releases the underlying files. If no fold-back (see FoldBacks)
// replaced them during the session, buffered edits are discarded and the
// on-disk graph is exactly as opened; otherwise Close flushes the
// remaining buffer too, so the disk state is never torn between old and
// new edits. Once Adopt has put a checkpoint's tables in place, Close
// discards the buffer: whoever wrote the checkpoint (a durable graph's
// checkpoints and log) holds those edits and restores the files.
func (g *Graph) Close() error { return g.dyn.Close() }

// Base reports the path prefix the graph was opened from.
func (g *Graph) Base() string { return g.base }

// NumNodes reports n.
func (g *Graph) NumNodes() uint32 { return g.dyn.NumNodes() }

// NumEdges reports the current undirected edge count (disk plus buffered
// edits).
func (g *Graph) NumEdges() int64 { return g.dyn.NumEdges() }

// Neighbors loads the current adjacency list of v (disk merged with
// buffered edits), costing O(1 + deg(v)/B) read I/Os.
func (g *Graph) Neighbors(v uint32) ([]uint32, error) {
	if v >= g.NumNodes() {
		return nil, fmt.Errorf("kcore: node %d out of range [0,%d)", v, g.NumNodes())
	}
	return g.dyn.Neighbors(v, nil)
}

// Degree reports the current degree of v.
func (g *Graph) Degree(v uint32) (uint32, error) {
	if v >= g.NumNodes() {
		return 0, fmt.Errorf("kcore: node %d out of range [0,%d)", v, g.NumNodes())
	}
	return g.dyn.Degree(v)
}

// HasEdge reports whether {u,v} is currently present.
func (g *Graph) HasEdge(u, v uint32) (bool, error) { return g.dyn.HasEdge(u, v) }

// Flush forces buffered edits to be merged into the disk tables, from one
// verified scan of them: a checksum mismatch fails it, files untouched.
func (g *Graph) Flush() error { return g.dyn.Compact() }

// BufferedArcs reports the arcs in the update buffer; it may be read
// during a mutation.
func (g *Graph) BufferedArcs() int { return g.dyn.BufferedArcs() }

// FoldBacks counts the buffer's fold-backs into the tables (Flush, the
// automatic one, Adopt); it may be read during a mutation.
func (g *Graph) FoldBacks() int64 { return g.dyn.FoldBacks() }

// View is a pinned, read-only image of a Graph: a graph.Source of the
// adjacency as it stood at Pin, scanned from any goroutine while the
// graph keeps taking edits and fold-backs; Release frees it. The durable
// serving shell (internal/engine) writes its checkpoints from one.
type View = dyngraph.View

// Pin captures a View of the graph as it stands, in O(update buffer)
// time and memory and without reading the tables. Like every other
// method it must not run concurrently with a mutation of g.
func (g *Graph) Pin() (*View, error) { return g.dyn.Pin() }

// Adopt folds the buffer back without writing or reading a table: the
// tables at path prefix tables, holding exactly view's adjacency (a
// checkpoint of it), replace the graph's, and the buffer keeps the edits
// made since Pin; a view pinned before the last fold-back is ErrStale.
func (g *Graph) Adopt(view *View, tables string) error { return g.dyn.Adopt(view, tables) }

// IOStats reports the cumulative block I/O performed through this handle.
func (g *Graph) IOStats() IOStats { return g.ctr.Snapshot() }

// DiskStats snapshots the block cache, update buffer and fold-back
// gauges. Unlike the rest of the handle it may be called concurrently
// with a mutation.
func (g *Graph) DiskStats() *stats.DiskSnapshot { return g.dyn.DiskStats() }

// VisitEdges streams every current undirected edge once (u < v) via one
// sequential scan, in the order the tables lay the nodes out (Build: a
// peeling order), each node's edges by ascending v.
func (g *Graph) VisitEdges(fn func(u, v uint32) error) error {
	return graph.Edges(g.dyn, func(e graph.Edge) error { return fn(e.U, e.V) })
}
