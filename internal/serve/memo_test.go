package serve_test

import (
	"sync"
	"testing"

	"kcore/internal/serve"
)

// sameNodeSet reports whether two node lists contain the same nodes,
// ignoring order.
func sameNodeSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint32]struct{}, len(a))
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		if _, ok := set[v]; !ok {
			return false
		}
	}
	return true
}

// TestKCoreAtMatchesScan checks the memoized path against the uncached
// O(n) filter for every k, including k past the degeneracy, plus the
// documented ordering (core descending, ties by id ascending).
func TestKCoreAtMatchesScan(t *testing.T) {
	g, _ := openGraph(t, 400, 17)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := sess.Snapshot()
	for k := uint32(0); k <= e.Kmax+2; k++ {
		want := e.KCore(k) // uncached scan on the embedded snapshot
		got := e.KCoreAt(k)
		if !sameNodeSet(want, got) {
			t.Fatalf("k=%d: KCoreAt has %d nodes, scan has %d", k, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			cp, cc := e.CoreAt(got[i-1]), e.CoreAt(got[i])
			if cp < cc || (cp == cc && got[i-1] >= got[i]) {
				t.Fatalf("k=%d: order violated at %d: node %d (core %d) before node %d (core %d)",
					k, i, got[i-1], cp, got[i], cc)
			}
		}
	}

	checkSizes(t, e)
}

// checkSizes verifies the memo's size profile through KCoreAt against
// the snapshot's incrementally maintained Sizes: |KCoreAt(k)| is
// Sizes()[k] for every k through Kmax, and nothing past it.
func checkSizes(t *testing.T, e *serve.Epoch) {
	t.Helper()
	sizes := e.Sizes()
	if uint32(len(sizes)) != e.Kmax+1 {
		t.Fatalf("epoch %d: Sizes has %d entries, Kmax is %d", e.Seq, len(sizes), e.Kmax)
	}
	for k, want := range sizes {
		if got := len(e.KCoreAt(uint32(k))); int64(got) != want {
			t.Fatalf("epoch %d: |KCoreAt(%d)| = %d, Sizes[%d] = %d", e.Seq, k, got, k, want)
		}
	}
	if got := e.KCoreAt(e.Kmax + 1); got != nil {
		t.Fatalf("epoch %d: KCoreAt(Kmax+1) has %d nodes", e.Seq, len(got))
	}
}

// TestMemoCountsHitsAndMisses checks the cache accounting: one miss per
// epoch (the computation), hits for every query after it, and a fresh
// miss once a new epoch is published.
func TestMemoCountsHitsAndMisses(t *testing.T) {
	g, edges := openGraph(t, 150, 29)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := sess.Snapshot()
	for i := 0; i < 10; i++ {
		e.KCoreAt(2)
		e.KCoreAt(0)
	}
	st := sess.Report().Serve
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits != 19 {
		t.Fatalf("cache hits = %d, want 19", st.CacheHits)
	}
	if r := st.CacheHitRate(); r < 0.94 || r > 0.96 {
		t.Fatalf("hit rate = %.3f, want 19/20", r)
	}

	// A new epoch starts cold: its first query is a miss again. (A
	// delete+insert pair of one edge would annihilate in the coalescer
	// and publish nothing, so delete only.)
	ed := edges[0]
	if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: ed.U, V: ed.V}); err != nil {
		t.Fatal(err)
	}
	e2 := sess.Snapshot()
	if e2.Seq == e.Seq {
		t.Fatal("epoch did not advance")
	}
	e2.KCoreAt(1)
	if st := sess.Report().Serve; st.CacheMisses != 2 {
		t.Fatalf("cache misses after new epoch = %d, want 2", st.CacheMisses)
	}
	// The old epoch's memo is untouched and still hot.
	e.KCoreAt(3)
	if st := sess.Report().Serve; st.CacheMisses != 2 {
		t.Fatalf("old epoch recomputed: misses = %d, want 2", st.CacheMisses)
	}
}

// TestMemoConcurrentFirstAccess hammers a cold epoch from many
// goroutines; under -race this checks the sync.Once publication, and the
// counters must record exactly one miss.
func TestMemoConcurrentFirstAccess(t *testing.T) {
	g, _ := openGraph(t, 300, 31)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := sess.Snapshot()
	const goroutines = 16
	results := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.KCoreAt(uint32(i % 4))
			_ = e.KCoreAt(0)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		want := e.KCoreAt(uint32(i % 4))
		if len(r) != len(want) {
			t.Fatalf("goroutine %d saw %d nodes, want %d", i, len(r), len(want))
		}
	}
	if st := sess.Report().Serve; st.CacheMisses != 1 {
		t.Fatalf("concurrent first access: misses = %d, want 1", st.CacheMisses)
	}
}

// checkMemoAgainstScan verifies an epoch's memoized answers against the
// uncached paths: KCoreAt must set-match the O(n) KCore filter for every
// k through Kmax+2, its result must be ordered core-descending (the only
// order guarantee — repaired memos do not keep ties id-ascending), and
// its sizes must be Sizes'.
func checkMemoAgainstScan(t *testing.T, e *serve.Epoch) {
	t.Helper()
	for k := uint32(0); k <= e.Kmax+2; k++ {
		want := e.KCore(k)
		got := e.KCoreAt(k)
		if !sameNodeSet(want, got) {
			t.Fatalf("epoch %d k=%d: KCoreAt has %d nodes, scan has %d", e.Seq, k, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if e.CoreAt(got[i-1]) < e.CoreAt(got[i]) {
				t.Fatalf("epoch %d k=%d: order violated at %d: core %d before core %d",
					e.Seq, k, i, e.CoreAt(got[i-1]), e.CoreAt(got[i]))
			}
		}
	}
	checkSizes(t, e)
}

// TestMemoRepairMatchesRebuild publishes a run of single-edge epochs,
// querying each one, so every memo after the first is derived by the
// incremental bucket repair; each must agree exactly with the uncached
// scans.
func TestMemoRepairMatchesRebuild(t *testing.T) {
	g, edges := openGraph(t, 400, 37)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := sess.Snapshot()
	e.KCoreAt(0) // build epoch 0's memo from scratch
	const steps = 8
	for step := 0; step < steps; step++ {
		ed := edges[step/2]
		op := serve.OpDelete
		if step%2 == 1 {
			op = serve.OpInsert // restore what the previous step removed
		}
		if err := sess.Apply(serve.Update{Op: op, U: ed.U, V: ed.V}); err != nil {
			t.Fatal(err)
		}
		e2 := sess.Snapshot()
		if e2.Seq == e.Seq {
			t.Fatalf("step %d: epoch did not advance", step)
		}
		checkMemoAgainstScan(t, e2)
		if st := sess.Report().Serve; st.MemoRepairs != int64(step+1) {
			t.Fatalf("step %d: memo repairs = %d, want %d", step, st.MemoRepairs, step+1)
		}
		e = e2
	}
}

// TestMemoRepairChainsAcrossUnqueriedEpochs skips queries for several
// published epochs and then queries: the memo must be repaired once from
// the last built memo, replaying the chained dirty sets, not rebuilt.
func TestMemoRepairChainsAcrossUnqueriedEpochs(t *testing.T) {
	g, edges := openGraph(t, 300, 41)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	sess.Snapshot().KCoreAt(0) // build epoch 0's memo
	for i := 0; i < 3; i++ {
		ed := edges[i]
		if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: ed.U, V: ed.V}); err != nil {
			t.Fatal(err)
		}
	}
	e := sess.Snapshot()
	if e.Seq != 3 {
		t.Fatalf("epoch = %d, want 3", e.Seq)
	}
	checkMemoAgainstScan(t, e)
	st := sess.Report().Serve
	if st.MemoRepairs != 1 {
		t.Fatalf("memo repairs = %d, want 1", st.MemoRepairs)
	}
	if st.CacheMisses != 2 { // epoch 0's build + epoch 3's repair
		t.Fatalf("cache misses = %d, want 2", st.CacheMisses)
	}
}

// TestMemoRepairBuildsUnqueriedBase queries nothing before the first
// mutation: repairing the new epoch must lazily full-build its base
// (epoch 0) and still agree with the scans.
func TestMemoRepairBuildsUnqueriedBase(t *testing.T) {
	g, edges := openGraph(t, 300, 43)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ed := edges[0]
	if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: ed.U, V: ed.V}); err != nil {
		t.Fatal(err)
	}
	e := sess.Snapshot()
	checkMemoAgainstScan(t, e)
	st := sess.Report().Serve
	if st.MemoRepairs != 1 {
		t.Fatalf("memo repairs = %d, want 1", st.MemoRepairs)
	}
	if st.CacheMisses != 2 { // base built on demand + the repair itself
		t.Fatalf("cache misses = %d, want 2", st.CacheMisses)
	}
}
