// Package semicore implements the paper's primary contribution: the
// semi-external core decomposition algorithms SemiCore (Algorithm 3),
// SemiCore+ (Algorithm 4) and SemiCore* (Algorithm 5). All three keep
// O(n) node state in memory (intermediate core numbers, plus the active
// bitmap or the cnt counters for the optimised variants) and stream
// adjacency lists from a graph.Source, which may be the block-counted disk
// tables or an in-memory CSR.
package semicore

import "slices"

// localCoreBuf evaluates the paper's LocalCore procedure (Algorithm 3,
// lines 11-20): given node v's current estimate cold and upper bounds on
// its neighbours' core numbers, it returns the largest k with
// |{u in nbr(v): bound(u) >= k}| >= k, i.e. one application of the
// locality equation (Eq. 1). The num histogram and the gathered bounds
// are retained between calls, so each evaluation is O(deg(v)) with zero
// allocation in steady state.
type localCoreBuf struct {
	num []uint32 // all zero between calls
	eff []uint32 // neighbour bounds gathered by localCore
}

// localCore gathers v's neighbour bounds and applies the locality
// equation. With cnt == nil the bound is the stored estimate core(u),
// the paper's rule (SemiCore, SemiCore+). With counters it is the
// violation lookahead
//
//	eff(u) = core(u) - [0 <= cnt(u) < core(u)]:
//
// an exact cnt(u) below core(u) proves core(u) cannot be u's core number
// (fewer than core(u) neighbours can support that level), so core(u)-1 is
// an upper bound that costs no I/O. A negative cnt(u) is SemiCoreStar's
// "not yet counted" marker, not a count, and earns no discount. See
// docs/ARCHITECTURE.md, "Deviations from the paper".
func (b *localCoreBuf) localCore(cold uint32, nbrs []uint32, core []uint32, cnt []int32) uint32 {
	b.eff = slices.Grow(b.eff[:0], len(nbrs))
	eff := b.eff[:len(nbrs)]
	if cnt == nil {
		for i, u := range nbrs {
			eff[i] = core[u]
		}
	} else {
		for i, u := range nbrs {
			c := core[u]
			if k := cnt[u]; k >= 0 && uint32(k) < c {
				c--
			}
			eff[i] = c
		}
	}
	return b.hindex(cold, eff)
}

// hindex returns the largest k <= cold with |{i : vals[i] >= k}| >= k.
// It clamps vals to cold in place, so the histogram is cleared by
// replaying vals instead of re-reading the arrays they came from.
func (b *localCoreBuf) hindex(cold uint32, vals []uint32) uint32 {
	if cold == 0 {
		return 0
	}
	if len(b.num) < int(cold)+1 {
		b.num = make([]uint32, int(cold)+1)
	}
	num := b.num
	for i, c := range vals {
		if c > cold {
			c = cold
			vals[i] = c
		}
		num[c]++
	}
	s := uint32(0)
	k := cold
	for ; k >= 1; k-- {
		s += num[k]
		if s >= k {
			break
		}
	}
	for _, c := range vals {
		num[c] = 0
	}
	return k
}

// Trace observes one finished iteration of a decomposition or maintenance
// run: its 1-based index, the ids whose core number was recomputed this
// iteration (the paper's grey cells), and the full core array after the
// iteration. The core slice is live algorithm state; implementations must
// copy what they keep.
type Trace func(iter int, computed []uint32, core []uint32)
