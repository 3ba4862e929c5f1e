package serve

import (
	"sync"
	"sync/atomic"

	"kcore"
)

// epochMemo holds derived query results computed at most once per epoch.
// The soundness argument is the epoch immutability contract: a published
// Epoch's core numbers never change, so any pure function of them can be
// computed once and served to every later caller without revalidation.
// The once gate makes the single computation safe under concurrent first
// callers; after it completes, reads are plain loads of immutable data.
//
// The computation itself has two paths: a full counting sort, and — when
// a predecessor epoch's memo is available — an incremental repair that
// moves only the nodes whose core number changed between the epochs
// (memoRepair, attached by the writer at publish time).
type epochMemo struct {
	once sync.Once
	// built flips to true after once completes; the writer reads it to
	// decide whether the next epoch can repair from this one.
	built atomic.Bool

	// order lists all nodes sorted by core number descending, so that
	// the k-core — {v : core(v) >= k}, by Lemma 2.1 — is exactly the
	// prefix order[:sizes[k]] for every k. Within one core value the
	// order is unspecified: id-ascending when the memo was counting-
	// sorted from scratch, arbitrary after incremental repairs.
	order []uint32

	// pos is the inverse permutation: pos[v] is v's index in order.
	// Carrying it makes the incremental repair O(1) per bucket move.
	pos []uint32

	// sizes is the degeneracy size profile: sizes[k] = |k-core| for
	// k in [0, Kmax].
	sizes []int64
}

// memoRepair is the plan the writer attaches to an epoch so its memo can
// be derived from a predecessor's instead of re-sorted from scratch:
// base is the epoch to repair from, dirty chains together the per-publish
// changed-node sets between base and this epoch (newest first; nodes may
// repeat across links), and total bounds the chained node count.
//
// Retention is bounded by construction: base always either has a built
// memo or carries no repair plan of its own, so repairing recurses at
// most one level, and an epoch drops its plan (repair.Store(nil)) once
// its memo is built, so built epochs never pin their predecessors.
type memoRepair struct {
	base  *Epoch
	dirty *dirtyChain
	total int
}

// dirtyChain is a persistent cons list of per-publish dirty sets:
// appending one publish costs O(1) and never mutates links shared with
// already-published epochs.
type dirtyChain struct {
	prev  *dirtyChain
	nodes []uint32
}

// memoRepairMaxFrac caps the cumulative dirty count a repair chain may
// carry at n/memoRepairMaxFrac: past that, a full counting sort is no
// slower than replaying the moves, and dropping the plan also bounds how
// much superseded chunk history the chain keeps alive.
const memoRepairMaxFrac = 8

// ensure computes the memo on first use, reporting hit/miss (and repair)
// accounting to the owning session's counters (if any).
func (e *Epoch) ensure() {
	computed, repaired := false, false
	e.memo.once.Do(func() {
		computed = true
		repaired = e.buildMemo()
		e.memo.built.Store(true)
		// Break the retention chain: a built memo never needs its
		// repair base again, and successors repair from this epoch.
		e.repair.Store(nil)
	})
	if e.ctr != nil {
		if computed {
			e.ctr.NoteCacheMiss()
			if repaired {
				e.ctr.NoteMemoRepair()
			}
		} else {
			e.ctr.NoteCacheHit()
		}
	}
}

// buildMemo fills e.memo, preferring the incremental repair when a plan
// is attached; reports whether the repair path was taken.
func (e *Epoch) buildMemo() bool {
	if r := e.repair.Load(); r != nil && e.repairFrom(r) {
		return true
	}
	e.memo.sizes = e.Sizes()
	e.memo.order, e.memo.pos = bucketOrder(e.CoreSnapshot, e.memo.sizes)
	return false
}

// bucketOrder counting-sorts the nodes by core number descending. sizes
// must be s.Sizes(); sizes[k]-sizes[k+1] nodes have core exactly k, so
// the descending buckets can be placed without a comparison sort. The
// inverse permutation is filled alongside.
func bucketOrder(s *kcore.CoreSnapshot, sizes []int64) (order, pos []uint32) {
	order = make([]uint32, s.NumNodes())
	pos = make([]uint32, s.NumNodes())
	// next[k] is the write cursor for the bucket of core number k: the
	// k=Kmax bucket starts at 0, the k bucket right after the k+1 one.
	next := make([]int64, len(sizes))
	for k := len(sizes) - 2; k >= 0; k-- {
		next[k] = sizes[k+1]
	}
	s.ForEachCore(func(v, c uint32) {
		order[next[c]] = v
		pos[v] = uint32(next[c])
		next[c]++
	})
	return order, pos
}

// repairFrom derives this epoch's memo from r.base's by moving only the
// chained dirty nodes between buckets — O(n) to clone the base arrays
// (two memcpys, no scatter) plus O(sum of |Δcore|) constant-time swaps,
// instead of a full counting re-sort. Reports false when the base cannot
// serve (empty graph), sending the caller down the full build.
//
// The move primitive is the Batagelj–Žaversnik bin trick adapted to the
// descending layout: bucket k occupies [bstart[k], bstart[k-1]), so
// raising a node one level swaps it with the first element of its bucket
// and advances that boundary, and lowering swaps with the last element
// and retracts it. Each swap keeps every other node inside its own
// bucket, so boundaries stay consistent throughout.
func (e *Epoch) repairFrom(r *memoRepair) bool {
	base := r.base
	base.ensure()
	bm := &base.memo
	n := len(bm.order)
	if n == 0 {
		return false
	}
	order := append([]uint32(nil), bm.order...)
	pos := append([]uint32(nil), bm.pos...)

	maxK := base.Kmax
	if e.Kmax > maxK {
		maxK = e.Kmax
	}
	// bstart[k] = |{w : core(w) > k}| under the base layout; entries at
	// and above base.Kmax start 0, so raises past the old top work.
	bstart := make([]int64, maxK+2)
	for k := 0; k+1 < len(bm.sizes); k++ {
		bstart[k] = bm.sizes[k+1]
	}
	swap := func(i, j int64) {
		order[i], order[j] = order[j], order[i]
		pos[order[i]], pos[order[j]] = uint32(i), uint32(j)
	}
	seen := make(map[uint32]struct{}, r.total)
	for ch := r.dirty; ch != nil; ch = ch.prev {
		for _, v := range ch.nodes {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			a, b := base.CoreAt(v), e.CoreAt(v)
			for a < b { // raise one level into bucket a+1
				swap(int64(pos[v]), bstart[a])
				bstart[a]++
				a++
			}
			for a > b { // lower one level into bucket a-1
				swap(int64(pos[v]), bstart[a-1]-1)
				bstart[a-1]--
				a--
			}
		}
	}
	sizes := make([]int64, e.Kmax+1)
	sizes[0] = int64(n)
	for k := uint32(1); k <= e.Kmax; k++ {
		sizes[k] = bstart[k-1]
	}
	e.memo.order, e.memo.pos, e.memo.sizes = order, pos, sizes
	return true
}

// KCoreAt returns the nodes of the k-core at this epoch from the
// per-epoch memo: the first call on an epoch pays one memo build (a
// counting sort, or an O(changed) repair of the previous epoch's memo),
// every later call (any k) is an O(1) subslice. Nodes are ordered by core
// number descending — so a prefix of the result is always the "most
// deeply embedded" portion of the k-core; the order within one core
// value is unspecified.
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
