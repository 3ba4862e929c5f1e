package kcore

import (
	"fmt"
	"sort"

	"kcore/internal/graph"
)

// ApproxMaxClique greedily grows a clique inside the deepest cores, the
// classic use of core decomposition as a preprocessing step for clique
// finding (a kmax-clique requires all members to have core >= kmax-1, so
// the search space shrinks to the top cores). The result is a valid
// clique, at least of size 2 on any graph with an edge, and of size
// kmax+1 whenever the kmax-core is a clique; it is a heuristic, not an
// exact solver.
//
// The scan cost is one pass to rank candidates plus one indexed
// neighbour load per accepted or rejected candidate.
func (g *Graph) ApproxMaxClique(core []uint32) ([]uint32, error) {
	if uint32(len(core)) != g.NumNodes() {
		return nil, fmt.Errorf("kcore: core array covers %d nodes, graph has %d", len(core), g.NumNodes())
	}
	if g.NumNodes() == 0 {
		return nil, nil
	}
	// Candidates in decreasing core order; ties by id for determinism.
	order := DegeneracyOrder(core)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	var best []uint32
	// Try a handful of seeds from the deepest shell: greedy from a single
	// seed can get unlucky, and reseeding is cheap.
	seeds := 8
	if seeds > len(order) {
		seeds = len(order)
	}
	for s := 0; s < seeds; s++ {
		clique, err := g.growClique(order, s, core)
		if err != nil {
			return nil, err
		}
		if len(clique) > len(best) {
			best = clique
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best, nil
}

// growClique greedily extends a clique from order[seed], considering
// candidates in deep-core-first order and keeping those adjacent to all
// current members.
func (g *Graph) growClique(order []uint32, seed int, core []uint32) ([]uint32, error) {
	first := order[seed]
	clique := []uint32{first}
	// A node can only be in a clique of size k+1 if its core >= k, so
	// candidates below the current clique size are prunable.
	for i := 0; i < len(order); i++ {
		v := order[i]
		if v == first {
			continue
		}
		if int(core[v]) < len(clique) {
			break // order is core-descending: nothing below can extend
		}
		nbrs, err := g.Neighbors(v)
		if err != nil {
			return nil, err
		}
		adjacentToAll := true
		for _, c := range clique {
			if !graph.Contains(nbrs, c) {
				adjacentToAll = false
				break
			}
		}
		if adjacentToAll {
			clique = append(clique, v)
		}
	}
	return clique, nil
}
