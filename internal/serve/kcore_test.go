package serve_test

import (
	"cmp"
	"slices"
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

// TestKCoreAtMatchesScan checks KCoreAt against the id-ordered O(n)
// filter for every k, including k past the degeneracy, plus the
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
		want := e.KCore(k) // the id-ordered filter on the embedded snapshot
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

// checkSizes verifies the k-core sizes KCoreAt lists against
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

// bucketSorted is the order KCoreAt documents for the k-core of e: the
// id-ordered scan, stably sorted by core number descending.
func bucketSorted(e *serve.Epoch, k uint32) []uint32 {
	want := e.KCore(k)
	slices.SortStableFunc(want, func(a, b uint32) int { return cmp.Compare(e.CoreAt(b), e.CoreAt(a)) })
	return want
}

// checkKCoreAtAgainstScan verifies an epoch's KCoreAt answers against the
// id-ordered filter: for every k through Kmax+2, KCoreAt must be exactly
// the scan's nodes in the documented order (core descending, ids
// ascending within one core), and its sizes must be Sizes'.
func checkKCoreAtAgainstScan(t *testing.T, e *serve.Epoch) {
	t.Helper()
	for k := uint32(0); k <= e.Kmax+2; k++ {
		if got, want := e.KCoreAt(k), bucketSorted(e, k); !slices.Equal(got, want) {
			t.Fatalf("epoch %d k=%d: KCoreAt (%d nodes) is not the scan (%d nodes) in bucket order",
				e.Seq, k, len(got), len(want))
		}
	}
	checkSizes(t, e)
}

// TestMemoMatchesScanEveryEpoch publishes a run of single-edge epochs,
// querying each one; each must agree exactly with the id-ordered filter.
func TestMemoMatchesScanEveryEpoch(t *testing.T) {
	g, edges := openGraph(t, 400, 37)
	sess, err := serve.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	e := sess.Snapshot()
	checkKCoreAtAgainstScan(t, e)
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
		checkKCoreAtAgainstScan(t, e2)
		e = e2
	}
}

// TestKCoreAtOrderIndependentOfQueryHistory: two sessions on the same
// graph apply the same deletes, one querying every epoch and one only
// the last. Their k-core lists must be the same slice in the documented
// order — what /kcore?limit= returns must not depend on which earlier
// epochs a server (a leader, or its follower) happened to be asked
// about.
func TestKCoreAtOrderIndependentOfQueryHistory(t *testing.T) {
	const deletes = 12
	var last [2]*serve.Epoch
	for i, queryEvery := range []bool{true, false} {
		g, edges := openGraph(t, 400, 37)
		sess, err := serve.New(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range edges[:deletes] {
			if queryEvery {
				sess.Snapshot().KCoreAt(1)
			}
			if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: ed.U, V: ed.V}); err != nil {
				t.Fatal(err)
			}
		}
		last[i] = sess.Snapshot()
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	every, once := last[0].KCoreAt(1), last[1].KCoreAt(1)
	if !slices.Equal(every, once) {
		t.Fatalf("KCoreAt(1) after %d deletes depends on the query history (%d vs %d nodes)",
			deletes, len(every), len(once))
	}
	if want := bucketSorted(last[0], 1); !slices.Equal(every, want) {
		t.Fatal("KCoreAt(1) is not in bucket order (core descending, ids ascending)")
	}
}
