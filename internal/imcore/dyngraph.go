package imcore

import (
	"fmt"

	"kcore/internal/graph"
	"kcore/internal/memgraph"
)

// DynGraph is a mutable in-memory adjacency structure used by the
// in-memory maintenance baselines. Lists stay sorted so membership checks
// are logarithmic and iteration order is deterministic.
type DynGraph struct {
	adj  [][]uint32
	arcs int64
}

// NewDynGraph builds a mutable copy of a CSR.
func NewDynGraph(g *memgraph.CSR) *DynGraph {
	n := g.NumNodes()
	d := &DynGraph{adj: make([][]uint32, n), arcs: g.NumArcs()}
	for v := uint32(0); v < n; v++ {
		d.adj[v] = append([]uint32(nil), g.Neighbors(v)...)
	}
	return d
}

// NumNodes reports n.
func (d *DynGraph) NumNodes() uint32 { return uint32(len(d.adj)) }

// NumEdges reports the current undirected edge count.
func (d *DynGraph) NumEdges() int64 { return d.arcs / 2 }

// Neighbors returns the live adjacency list of v (a view; do not mutate).
func (d *DynGraph) Neighbors(v uint32) []uint32 { return d.adj[v] }

// Degree reports deg(v).
func (d *DynGraph) Degree(v uint32) uint32 { return uint32(len(d.adj[v])) }

// HasEdge reports whether {u,v} is present.
func (d *DynGraph) HasEdge(u, v uint32) bool { return graph.Contains(d.adj[u], v) }

// Insert adds {u,v}; it rejects self-loops and duplicates.
func (d *DynGraph) Insert(u, v uint32) error {
	if u == v {
		return fmt.Errorf("imcore: self-loop (%d,%d)", u, v)
	}
	if u >= d.NumNodes() || v >= d.NumNodes() {
		return fmt.Errorf("imcore: edge (%d,%d) out of range n=%d", u, v, d.NumNodes())
	}
	if d.HasEdge(u, v) {
		return fmt.Errorf("imcore: edge (%d,%d) already present", u, v)
	}
	d.adj[u] = graph.InsertSorted(d.adj[u], v)
	d.adj[v] = graph.InsertSorted(d.adj[v], u)
	d.arcs += 2
	return nil
}

// Delete removes {u,v}; it rejects absent edges.
func (d *DynGraph) Delete(u, v uint32) error {
	if u >= d.NumNodes() || v >= d.NumNodes() {
		return fmt.Errorf("imcore: edge (%d,%d) out of range n=%d", u, v, d.NumNodes())
	}
	if !d.HasEdge(u, v) {
		return fmt.Errorf("imcore: edge (%d,%d) not present", u, v)
	}
	d.adj[u] = graph.RemoveSorted(d.adj[u], v)
	d.adj[v] = graph.RemoveSorted(d.adj[v], u)
	d.arcs -= 2
	return nil
}

// CSR snapshots the current graph as an immutable CSR.
func (d *DynGraph) CSR() *memgraph.CSR {
	var edges []graph.Edge
	for v := uint32(0); v < d.NumNodes(); v++ {
		for _, u := range d.adj[v] {
			if u > v {
				edges = append(edges, graph.Edge{U: v, V: u})
			}
		}
	}
	g, err := memgraph.FromEdges(d.NumNodes(), edges)
	if err != nil {
		panic(err) // DynGraph maintains the invariants FromEdges checks
	}
	return g
}
