package semicore

import (
	"fmt"

	"kcore/internal/stats"
)

// NeighborSource is the random-access adjacency contract of the
// worklist-driven converge: unlike graph.Source, whose window scans walk
// every node id between the bounds (and are priced for sequential disk
// tables), a NeighborSource answers one node's adjacency directly — the
// access pattern of an in-memory region, where touching nodes outside
// the affected region would not just be wasted work but, under the
// region-parallel writer of internal/serve, a data race on a foreign
// worker's state.
type NeighborSource interface {
	NumNodes() uint32
	// Neighbors returns v's sorted adjacency. The slice is only valid
	// until the next mutation of the graph; callers here never mutate
	// between the fetch and its use.
	Neighbors(v uint32) ([]uint32, error)
}

// LocalConverger runs the SemiCore* converge loop (Algorithm 5 lines
// 4-14) as a worklist traversal seeded from a set of violated nodes
// instead of a window scan. The recomputation condition is the same
// exact one (cnt(v) < core(v), Lemma 4.2) and the fixpoint is the same
// unique one — estimates only ever decrease, so any chaotic order
// converges to it, the argument SemiCoreParallel already leans on — but
// the traversal touches only nodes reachable from the seeds through
// cnt-violation propagation: exactly the affected region of a deletion
// batch, never a foreign node. That containment is what makes it safe
// to run one LocalConverger per region concurrently over shared
// core/cnt arrays, as the region-parallel flush of internal/serve does.
//
// The scratch (queued-stamp array and worklist) is reused across calls;
// a LocalConverger is owned by one goroutine at a time.
type LocalConverger struct {
	queued []uint32 // queued[v] == epoch marks v as on the worklist
	epoch  uint32
	work   []uint32
}

// Converge drains the violated set seeded by seeds: every seed with
// cnt < core is recomputed via the locality equation, neighbour
// counters are adjusted, and newly violated neighbours join the
// worklist until none remain. st's core/cnt are repaired in place; rs
// accumulates node computations and the changed-node (dirty) set.
func (lc *LocalConverger) Converge(g NeighborSource, st *State, seeds []uint32, rs *stats.RunStats) error {
	n := g.NumNodes()
	if len(lc.queued) < int(n) {
		lc.queued = make([]uint32, n)
		lc.epoch = 0
	}
	lc.epoch++
	if lc.epoch == 0 { // wrapped: do the rare O(n) clear
		clear(lc.queued)
		lc.epoch = 1
	}
	lc.work = lc.work[:0]
	push := func(v uint32) {
		if lc.queued[v] != lc.epoch {
			lc.queued[v] = lc.epoch
			lc.work = append(lc.work, v)
		}
	}
	for _, v := range seeds {
		if v >= n {
			return fmt.Errorf("semicore: converge seed %d out of range n=%d", v, n)
		}
		if st.Cnt[v] < int32(st.Core[v]) {
			push(v)
		}
	}
	for len(lc.work) > 0 {
		v := lc.work[len(lc.work)-1]
		lc.work = lc.work[:len(lc.work)-1]
		lc.queued[v] = lc.epoch - 1 // off the list; may be re-pushed
		if st.Cnt[v] >= int32(st.Core[v]) {
			continue // repaired by an earlier recomputation
		}
		nbrs, err := g.Neighbors(v)
		if err != nil {
			return err
		}
		_, violated := st.recompute(v, nbrs, rs)
		for _, u := range violated {
			push(u)
		}
	}
	rs.Iterations++
	return nil
}
