// Package memgraph provides the in-memory compressed-sparse-row graph used
// by the in-memory baselines (IMCore, IMInsert/IMDelete), by the reference
// checkers, and as a fast backend for the semi-external algorithms in
// tests. It also implements the node- and edge-sampling transforms the
// paper's scalability study (Figs. 11 and 12) is built on.
package memgraph

import (
	"fmt"
	"sort"

	"kcore/internal/graph"
)

// CSR is a compressed-sparse-row undirected graph. Adjacency lists are
// sorted ascending; every edge is stored as two arcs.
type CSR struct {
	offsets []int64  // length n+1
	adj     []uint32 // length = arcs
}

// FromEdges builds a CSR over n nodes from an undirected edge list.
// Self-loops and duplicate edges (in either orientation) are dropped.
// Endpoints must be < n.
func FromEdges(n uint32, edges []graph.Edge) (*CSR, error) {
	deg := make([]int64, n+1)
	clean := make([]graph.Edge, 0, len(edges))
	seen := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		if e.U >= n || e.V >= n {
			return nil, fmt.Errorf("memgraph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		clean = append(clean, graph.Edge{U: u, V: v})
		deg[u+1]++
		deg[v+1]++
	}
	for i := uint32(0); i < n; i++ {
		deg[i+1] += deg[i]
	}
	offsets := deg
	adj := make([]uint32, offsets[n])
	fill := make([]int64, n)
	for _, e := range clean {
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offsets[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &CSR{offsets: offsets, adj: adj}
	for v := uint32(0); v < n; v++ {
		l := g.Neighbors(v)
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return g, nil
}

// FromSource loads src into a CSR: its degrees give the offsets, and one
// scan copies its lists, which a Source gives sorted and free of
// duplicates.
func FromSource(src graph.Source) (*CSR, error) {
	n := src.NumNodes()
	offsets := make([]int64, n+1)
	if err := src.ScanDegrees(func(v, deg uint32) error {
		offsets[v+1] = int64(deg)
		return nil
	}); err != nil {
		return nil, err
	}
	for v := range n {
		offsets[v+1] += offsets[v]
	}
	g := &CSR{offsets: offsets, adj: make([]uint32, offsets[n])}
	if err := graph.ScanAll(src, func(v uint32, nbrs []uint32) error {
		if len(nbrs) != int(g.Degree(v)) {
			return fmt.Errorf("memgraph: node %d has %d neighbours, its degree is %d", v, len(nbrs), g.Degree(v))
		}
		copy(g.Neighbors(v), nbrs)
		return nil
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// NumNodes reports n.
func (g *CSR) NumNodes() uint32 { return uint32(len(g.offsets) - 1) }

// NumArcs reports the number of stored arcs (2x edges).
func (g *CSR) NumArcs() int64 { return int64(len(g.adj)) }

// NumEdges reports the number of undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Degree reports deg(v).
func (g *CSR) Degree(v uint32) uint32 {
	return uint32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns nbr(v) as a view into the CSR; callers must not
// modify it (sampling helpers excepted, which own the graph).
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is present, via binary search.
func (g *CSR) HasEdge(u, v uint32) bool { return graph.Contains(g.Neighbors(u), v) }

// ModelBytes reports the deterministic memory footprint of the CSR:
// 8(n+1) offset bytes plus 4 bytes per arc.
func (g *CSR) ModelBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.adj))*4
}

// EdgeList materialises graph.Edges: each undirected edge once (u < v),
// in id order.
func (g *CSR) EdgeList() []graph.Edge {
	out := make([]graph.Edge, 0, g.NumEdges())
	graph.Edges(g, func(e graph.Edge) error {
		out = append(out, e)
		return nil
	})
	return out
}

// Positions implements graph.Source: nil, the CSR is laid out in id
// order.
func (g *CSR) Positions() []uint32 { return nil }

// ScanDegrees implements graph.Source.
func (g *CSR) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	n := g.NumNodes()
	for v := uint32(0); v < n; v++ {
		if err := fn(v, g.Degree(v)); err != nil {
			return err
		}
	}
	return nil
}

// ScanDynamic implements graph.Source.
func (g *CSR) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	for v := vmin; v <= vmaxFn() && v < n; v++ {
		if want != nil && !want(v) {
			continue
		}
		if err := fn(v, g.Neighbors(v)); err != nil {
			return err
		}
	}
	return nil
}

var _ graph.Source = (*CSR)(nil)
