package serve

import (
	"sync"

	"kcore"
)

// epochMemo holds derived query results computed at most once per epoch.
// The soundness argument is the epoch immutability contract: a published
// Epoch's core numbers never change, so any pure function of them can be
// computed once and served to every later caller without revalidation.
// The once gate makes the single computation safe under concurrent first
// callers; after it completes, reads are plain loads of immutable data.
type epochMemo struct {
	once sync.Once

	// order lists all nodes sorted by core number descending, ids
	// ascending within one core number, so that the k-core — {v : core(v)
	// >= k}, by Lemma 2.1 — is exactly the prefix order[:sizes[k]] for
	// every k.
	order []uint32

	// sizes is the degeneracy size profile: sizes[k] = |k-core| for
	// k in [0, Kmax].
	sizes []int64
}

// ensure computes the memo on first use, reporting hit/miss accounting
// to the owning session's counters (if any).
func (e *Epoch) ensure() {
	computed := false
	e.memo.once.Do(func() {
		computed = true
		e.memo.sizes = e.Sizes()
		e.memo.order = bucketOrder(e.CoreSnapshot, e.memo.sizes)
	})
	if e.ctr != nil {
		if computed {
			e.ctr.NoteCacheMiss()
		} else {
			e.ctr.NoteCacheHit()
		}
	}
}

// bucketOrder counting-sorts the nodes by core number descending — the
// bin placement of Batagelj–Žaversnik's O(m) core algorithm. sizes
// must be s.Sizes(); sizes[k]-sizes[k+1] nodes have core exactly k, so
// the descending buckets can be placed without a comparison sort, and
// filling them in id order keeps ids ascending within each bucket.
func bucketOrder(s *kcore.CoreSnapshot, sizes []int64) []uint32 {
	order := make([]uint32, s.NumNodes())
	// next[k] is the write cursor for the bucket of core number k: the
	// k=Kmax bucket starts at 0, the k bucket right after the k+1 one.
	next := make([]int64, len(sizes))
	for k := len(sizes) - 2; k >= 0; k-- {
		next[k] = sizes[k+1]
	}
	s.ForEachCore(func(v, c uint32) {
		order[next[c]] = v
		next[c]++
	})
	return order
}

// KCoreAt returns the nodes of the k-core at this epoch from the
// per-epoch memo: the first call on an epoch pays one counting sort of
// the snapshot, every later call (any k) is an O(1) subslice. Nodes are
// ordered by core number descending, ids ascending within one core
// number — so a prefix of the result is always the "most deeply
// embedded" portion of the k-core, and the order is a function of the
// epoch's core numbers alone, the same whatever was queried before.
//
// The returned slice aliases the epoch's memo and must be treated as
// read-only; callers that mutate it must copy first. Use the embedded
// CoreSnapshot's KCore for a private, id-ordered copy.
func (e *Epoch) KCoreAt(k uint32) []uint32 {
	e.ensure()
	// Compare in uint64: int(k) would wrap negative on 32-bit platforms
	// for k > MaxInt32 and sneak past the guard.
	if uint64(k) >= uint64(len(e.memo.sizes)) {
		return nil
	}
	return e.memo.order[:e.memo.sizes[k]]
}
