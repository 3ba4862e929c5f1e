package semicore

import (
	"slices"
	"testing"

	"kcore/internal/verify"
)

// TestPeelOrder checks PeelOrder on the corpus, from the oracle's cores
// and counters: the order is a permutation along which the cores do not
// decrease and each node has at most core(v) later neighbours, and core
// and cnt are left as they were. Counters above the exact ones, which
// leave some node unplaceable, are an error, and so are arrays of the
// wrong length.
func TestPeelOrder(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			core := verify.CoresByRepeatedRemoval(g)
			cnt := verify.CntFor(g, core)
			keep := slices.Clone(cnt)
			order, err := PeelOrder(g, core, cnt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cnt, keep) {
				t.Fatal("the peel wrote cnt")
			}
			pos := make([]int, n)
			for v := range pos {
				pos[v] = -1
			}
			for p, v := range order {
				if pos[v] >= 0 {
					t.Fatalf("node %d placed twice", v)
				}
				pos[v] = p
			}
			for p, v := range order {
				if p > 0 && core[v] < core[order[p-1]] {
					t.Fatalf("position %d: core %d after %d", p, core[v], core[order[p-1]])
				}
				later := uint32(0)
				for _, u := range g.Neighbors(v) {
					if pos[u] > p {
						later++
					}
				}
				if later > core[v] {
					t.Fatalf("node %d (core %d) has %d later neighbours", v, core[v], later)
				}
			}
			if n == 0 {
				return
			}
			if _, err := PeelOrder(g, core[1:], cnt); err == nil {
				t.Fatal("cores one node short were accepted")
			}
			high := slices.Clone(cnt)
			for v := range high {
				if core[v] > 0 {
					high[v] += 2
				}
			}
			if slices.Max(core) > 0 {
				if _, err := PeelOrder(g, core, high); err == nil {
					t.Fatal("counters above the exact ones were accepted")
				}
			}
		})
	}
}
