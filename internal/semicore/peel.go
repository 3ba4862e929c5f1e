package semicore

import (
	"fmt"
	"math"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// PeelOrder returns a peeling order of g, order[p] the node at position
// p, from its exact cores and their Eq. 2 counters (a converged
// SemiCore* State's Core and Cnt; both only read). Along it core numbers
// do not decrease, and every node v has at most core(v) neighbours after
// it, so SemiCore* from the degrees converges in one pass over a table
// laid out in it (docs/ARCHITECTURE.md, "One pass along a peeling
// order").
//
// It is Matula and Beck's shell-by-shell peel, run on the pass engine:
// each node keeps the number of its unplaced neighbours with a core at
// least its own, starting from cnt(v), and is placed once that number is
// at most core(v). Placing v decrements it on v's unplaced neighbours of
// the same core and marks those it leaves placeable, for this pass when
// they lie ahead of the cursor and for the next when behind. A node of
// core k is placed after every node of a lower core, ties in the order
// they were placed. The result depends on the graph and its layout only:
// the engine reads lists as they come, with no cache shortcut. A core or
// cnt that is not exact can leave nodes unplaceable, which is an error.
// It holds 4n bytes of counts and the 4n-byte order.
func PeelOrder(g graph.Source, core []uint32, cnt []int32) ([]uint32, error) {
	n := g.NumNodes()
	if len(core) != int(n) || len(cnt) != int(n) {
		return nil, fmt.Errorf("semicore: peel of %d nodes given %d cores and %d counters", n, len(core), len(cnt))
	}
	// next[k] is the position the next placed node of core k takes.
	var next []uint32
	for _, k := range core {
		if int(k) >= len(next) {
			next = append(next, make([]uint32, int(k)+1-len(next))...)
		}
		next[k]++
	}
	var sum uint32
	for k, c := range next {
		next[k] = sum
		sum += c
	}
	const placed = math.MaxInt32
	left := make([]int32, n)
	copy(left, cnt)
	order := make([]uint32, n)
	var rs stats.RunStats
	p := Passes{Stats: &rs}
	var done uint32
	if n > 0 {
		err := p.Run(g, 0, n-1,
			func(v uint32) bool { return left[v] <= int32(core[v]) },
			func(v uint32, nbrs []uint32) error {
				k := core[v]
				order[next[k]] = v
				next[k]++
				left[v] = placed
				done++
				for _, u := range nbrs {
					if core[u] == k && left[u] != placed {
						left[u]--
						if left[u] == int32(k) {
							p.Mark(u)
						}
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
	}
	if done != n {
		return nil, fmt.Errorf("semicore: the peel placed %d of %d nodes: the cores or counters are not exact", done, n)
	}
	return order, nil
}
