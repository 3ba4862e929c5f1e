// Package graph defines the one contract every graph in the repository
// is read and written through: the on-disk table pair
// (internal/storage), the one buffered dynamic graph over it and its
// pinned views (internal/dyngraph) and the in-memory CSR
// (internal/memgraph). The semi-external algorithms of the paper are
// written against this interface only, so one implementation serves both
// the I/O-accounted disk runs and the fast in-memory tests, and the one
// writer, storage.WriteGraph, writes tables from any Source in its
// layout: a generated CSR, a checkpoint of a view, a fold-back.
package graph

// Edge is an undirected edge between two node ids, the one edge type of
// the repository: edge lists, update batches, log records and streams.
type Edge struct {
	U, V uint32
}

// Source is a read-only, scan-oriented graph. Node ids are dense in
// [0, NumNodes()). Adjacency lists are sorted ascending and free of
// self-loops and duplicates; every undirected edge appears in both
// endpoint lists.
//
// Scans visit nodes in the source's layout order, the order its lists are
// stored in: a permutation of the ids that Positions lends, nil (the
// identity) for the in-memory CSR and for tables in id order. Scan
// windows are positions in that order, and a pass engine compares
// positions, never ids, to tell a node ahead of its cursor from one
// behind it. Ids stay what they are
// everywhere else: lists, state arrays and callers see ids only.
type Source interface {
	// NumNodes reports n.
	NumNodes() uint32

	// NumArcs reports the stored arcs, twice the undirected edges.
	NumArcs() int64

	// Positions lends every id's position in the layout, a permutation of
	// [0, n), or nil when the layout is id order. Callers must not write
	// to it; Pos reads it.
	Positions() []uint32

	// ScanDegrees streams (v, deg(v)) for every node, in layout order.
	ScanDegrees(fn func(v uint32, deg uint32) error) error

	// ScanDynamic walks the positions from pmin up to pmaxFn(), which it
	// re-evaluates after every position, so callbacks may extend the scan
	// window while it runs. For the node v at each position where want
	// returns true (nil want selects all) it loads nbr(v) and calls fn.
	// The slice passed to fn is only valid during the call.
	ScanDynamic(pmin uint32, pmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error
}

// ScanAll calls fn with every node of src and its list, in layout order.
func ScanAll(src Source, fn func(v uint32, nbrs []uint32) error) error {
	last := src.NumNodes() - 1 // on no nodes, pmin 0 is past the end
	return src.ScanDynamic(0, func() uint32 { return last }, nil, fn)
}

// Edges calls fn with every undirected edge of src once, {v, u} with
// u > v, in layout order and each node's edges by ascending u.
func Edges(src Source, fn func(e Edge) error) error {
	return ScanAll(src, func(v uint32, nbrs []uint32) error {
		for _, u := range nbrs {
			if u > v {
				if err := fn(Edge{U: v, V: u}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Pos reports node v's position under layout, a Source's Positions: v
// itself when layout is nil.
func Pos(layout []uint32, v uint32) uint32 {
	if layout != nil {
		return layout[v]
	}
	return v
}
