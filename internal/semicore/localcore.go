// Package semicore implements the paper's primary contribution: the
// semi-external core decomposition algorithms SemiCore (Algorithm 3),
// SemiCore+ (Algorithm 4) and SemiCore* (Algorithm 5). All three keep
// O(n) node state in memory (intermediate core numbers, plus the active
// bitmap or the cnt counters for the optimised variants) and stream
// adjacency lists from a graph.Source, which may be the block-counted disk
// tables or an in-memory CSR. Passes is the one partial-scan pass engine
// (UpdateRange) under SemiCore+, SemiCore* and internal/maintain's
// SemiInsert and SemiInsert*.
package semicore

// localCoreBuf evaluates the paper's LocalCore procedure (Algorithm 3,
// lines 11-20): given node v's current estimate cold and upper bounds on
// its neighbours' core numbers, it returns the largest k with
// |{u in nbr(v): bound(u) >= k}| >= k, i.e. one application of the
// locality equation (Eq. 1). The num histogram is retained between calls,
// so each evaluation is O(deg(v) + cold) with zero allocation in steady
// state; cold <= deg(v) + 1 wherever it is called (see localCore).
type localCoreBuf struct {
	num []uint32 // all zero between calls
}

// localCore folds v's neighbour bounds, clamped to cold, into the h-index
// histogram and applies the locality equation. With cnt == nil the bound
// is the stored estimate core(u), the paper's rule (SemiCore, SemiCore+).
// With counters it is the violation lookahead
//
//	eff(u) = core(u) - [0 <= cnt(u) < core(u)]:
//
// an exact cnt(u) below core(u) proves core(u) cannot be u's core number
// (fewer than core(u) neighbours can support that level), so core(u)-1 is
// an upper bound that costs no I/O. A negative cnt(u) is SemiCoreStar's
// "not yet counted" marker, not a count, and earns no discount. See
// docs/ARCHITECTURE.md, "Deviations from the paper".
//
// The histogram is cleared whole, num[:cold+1], which is O(deg(v)):
// decompositions start from cold = deg(v) and only lower it, and in
// maintenance an estimate exceeds the degree by at most one (a delete
// lowers the degree under an exact core number; SemiInsert's flood raises
// an exact one by one).
func (b *localCoreBuf) localCore(cold uint32, nbrs []uint32, core []uint32, cnt []int32) uint32 {
	if cold == 0 {
		return 0
	}
	if len(b.num) < int(cold)+1 {
		b.num = make([]uint32, int(cold)+1)
	}
	num := b.num[:cold+1]
	if cnt == nil {
		for _, u := range nbrs {
			num[min(core[u], cold)]++
		}
	} else {
		for _, u := range nbrs {
			c := core[u]
			if k := cnt[u]; k >= 0 && uint32(k) < c {
				c--
			}
			num[min(c, cold)]++
		}
	}
	s := uint32(0)
	k := cold
	for ; k >= 1; k-- {
		s += num[k]
		if s >= k {
			break
		}
	}
	clear(num)
	return k
}

// Trace observes one finished iteration of a decomposition or maintenance
// run: its 1-based index, the ids whose core number was recomputed this
// iteration (the paper's grey cells), and the full core array after the
// iteration. The core slice is live algorithm state; implementations must
// copy what they keep.
type Trace func(iter int, computed []uint32, core []uint32)
