package kcore

import (
	"fmt"

	"kcore/internal/storage"
)

// ExtractKCore materialises the k-core of g as a new on-disk graph at
// path prefix outBase, semi-externally: one pass over the node ids to
// assign compact labels (O(n) memory) and one scan in layout order that
// reads only the members' lists — along Build's peeling order a suffix of
// the table — filtering and relabelling them straight into the builder,
// which keeps that order. It returns the mapping from new ids to original
// ids.
//
// Combined with Decompose this implements the paper's problem statement
// output — "the k-cores of G for all 1 <= k <= kmax" — as cheap
// derivatives of one decomposition (Lemma 2.1).
func (g *Graph) ExtractKCore(core []uint32, k uint32, outBase string) ([]uint32, error) {
	n := g.NumNodes()
	if uint32(len(core)) != n {
		return nil, fmt.Errorf("kcore: core array covers %d nodes, graph has %d", len(core), n)
	}
	remap := make([]int64, n)
	var members []uint32
	for v := range n {
		remap[v] = -1
		if core[v] >= k {
			remap[v] = int64(len(members))
			members = append(members, v)
		}
	}
	b, err := storage.NewBuilder(outBase, uint32(len(members)), g.ctr)
	if err != nil {
		return nil, err
	}
	var filtered []uint32
	member := func(v uint32) bool { return core[v] >= k }
	err = g.dyn.ScanDynamic(0, func() uint32 { return n - 1 }, member, func(v uint32, nbrs []uint32) error {
		filtered = filtered[:0]
		for _, u := range nbrs {
			if remap[u] >= 0 {
				filtered = append(filtered, uint32(remap[u]))
			}
		}
		return b.AppendList(uint32(remap[v]), filtered)
	})
	if err != nil {
		b.Abort()
		return nil, err
	}
	if err := b.Close(); err != nil {
		return nil, err
	}
	return members, nil
}
