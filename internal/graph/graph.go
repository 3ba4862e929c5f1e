// Package graph defines the neighbour-access contract shared by every
// graph backend in the repository: the on-disk table pair
// (internal/storage), the one buffered dynamic graph over it
// (internal/dyngraph) and the in-memory CSR (internal/memgraph). The
// semi-external algorithms of the paper are written against this
// interface only, so one implementation serves both the I/O-accounted
// disk runs and the fast in-memory tests.
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
type Source interface {
	// NumNodes reports n.
	NumNodes() uint32

	// ScanDegrees streams (v, deg(v)) for v = 0..n-1.
	ScanDegrees(fn func(v uint32, deg uint32) error) error

	// Scan walks v from vmin to vmax inclusive; for nodes where want
	// returns true (nil want selects all) it loads nbr(v) and calls fn.
	// The slice passed to fn is only valid during the call.
	Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error

	// ScanDynamic is Scan with an upper bound re-evaluated after every
	// node, so callbacks may extend the scan window while it runs.
	ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error
}

// Stop is a sentinel callbacks may return to end a scan early without
// reporting an error to the caller.
type stopError struct{}

func (stopError) Error() string { return "graph: scan stopped" }

// ErrStop ends a Scan early; Source implementations translate it to nil.
var ErrStop error = stopError{}

// IsStop reports whether err is the early-termination sentinel.
func IsStop(err error) bool {
	_, ok := err.(stopError)
	return ok
}
