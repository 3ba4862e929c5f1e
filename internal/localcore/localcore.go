// Package localcore holds the paper's LocalCore procedure (Algorithm 3,
// lines 11-20), the repository's one h-index. internal/semicore runs it
// at every recompute of its decompositions and of maintenance;
// internal/graphio's Build runs it once per list for the core estimate
// its scratch decomposition starts from. It imports nothing of the repository, so
// both can.
package localcore

import "slices"

// Buf evaluates LocalCore: given node v's current estimate cold and upper bounds on
// its neighbours' core numbers, it returns the largest k with
// |{u in nbr(v): bound(u) >= k}| >= k, i.e. one application of the
// locality equation (Eq. 1). The num histogram is retained between calls
// and grows geometrically, so each evaluation is O(deg(v) + cold) with
// zero allocation in steady state; cold <= deg(v) + 1 wherever it is
// called (see LocalCore).
type Buf struct {
	num []uint32 // all zero between calls, to its capacity
}

// LocalCore folds v's neighbour bounds, clamped to cold, into the h-index
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
func (b *Buf) LocalCore(cold uint32, nbrs []uint32, core []uint32, cnt []int32) uint32 {
	if cold == 0 {
		return 0
	}
	if len(b.num) < int(cold)+1 {
		b.num = slices.Grow(b.num, int(cold)+1-len(b.num))
		b.num = b.num[:cap(b.num)]
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
