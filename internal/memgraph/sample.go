package memgraph

import (
	"fmt"
	"math/rand"

	"kcore/internal/graph"
)

// SampleNodes implements the paper's vary-|V| scalability workload
// (Fig. 11a/b, 12a/b): it keeps each node independently-shuffled into the
// first frac fraction and returns the subgraph induced by the kept nodes,
// with ids compacted to [0, n'). The same seed always keeps the same
// nodes, and smaller fractions keep subsets of larger ones, so a 20%..100%
// sweep is nested exactly as in the paper's experiment.
func SampleNodes(g *CSR, frac float64, seed int64) (*CSR, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("memgraph: node fraction %v outside [0,1]", frac)
	}
	n := g.NumNodes()
	perm := rand.New(rand.NewSource(seed)).Perm(int(n))
	keepCount := int(float64(n) * frac)
	rank := make([]int, n)
	for pos, v := range perm {
		rank[v] = pos
	}
	remap := make([]int64, n)
	var nn uint32
	for v := uint32(0); v < n; v++ {
		if rank[v] < keepCount {
			remap[v] = int64(nn)
			nn++
		} else {
			remap[v] = -1
		}
	}
	var edges []graph.Edge
	graph.Edges(g, func(e graph.Edge) error {
		ru, rv := remap[e.U], remap[e.V]
		if ru >= 0 && rv >= 0 {
			edges = append(edges, graph.Edge{U: uint32(ru), V: uint32(rv)})
		}
		return nil
	})
	return FromEdges(nn, edges)
}

// SampleEdges implements the vary-|E| workload (Fig. 11c/d, 12c/d): it
// keeps each edge independently-shuffled into the first frac fraction and
// keeps the incident nodes of the kept edges, compacting ids. Sweeps with
// the same seed are nested.
func SampleEdges(g *CSR, frac float64, seed int64) (*CSR, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("memgraph: edge fraction %v outside [0,1]", frac)
	}
	all := g.EdgeList()
	perm := rand.New(rand.NewSource(seed)).Perm(len(all))
	keepCount := int(float64(len(all)) * frac)
	kept := make([]graph.Edge, 0, keepCount)
	for pos, idx := range perm {
		if pos < keepCount {
			kept = append(kept, all[idx])
		}
	}
	n := g.NumNodes()
	remap := make([]int64, n)
	for i := range remap {
		remap[i] = -1
	}
	var nn uint32
	assign := func(v uint32) uint32 {
		if remap[v] < 0 {
			remap[v] = int64(nn)
			nn++
		}
		return uint32(remap[v])
	}
	edges := make([]graph.Edge, 0, len(kept))
	for _, e := range kept {
		edges = append(edges, graph.Edge{U: assign(e.U), V: assign(e.V)})
	}
	return FromEdges(nn, edges)
}
