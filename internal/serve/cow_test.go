package serve_test

import (
	"runtime"
	"testing"
	"time"

	"kcore"
	"kcore/internal/serve"
)

// largeGraphNodes sizes the production-scale fixture: large enough that
// an O(n) per-publish cost is unmistakable next to an O(changed) one
// (the core array alone is 400 KB), small enough to decompose in tens of
// milliseconds.
const largeGraphNodes = 100_000

// TestPublishAllocatesOChunkNotON is the copy-on-write regression guard:
// publishing an epoch after a single-edge batch on the 100k-node fixture
// must allocate on the order of a few 16 KiB chunks, not the 400 KB+ an
// O(n) copy-on-publish pays. One epoch is published per round by
// toggling distinct edges through synchronous single-update flushes; the
// mean heap bytes allocated per publish is what the bound is on.
func TestPublishAllocatesOChunkNotON(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node fixture")
	}
	g, edges := openGraph(t, largeGraphNodes, 83)
	sess, err := serve.New(g, &serve.Options{
		FlushInterval: time.Hour, // flushes are driven by Sync barriers only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	del := func(e kcore.Edge) {
		if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: e.U, V: e.V}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the steady state so one-time buffer growth (queue, pending
	// slice, overlay maps) is not billed to the measured publishes.
	for i := 0; i < 4; i++ {
		del(edges[i])
	}

	const rounds = 32
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < rounds; i++ {
		del(edges[100+i*3])
	}
	runtime.ReadMemStats(&ms)
	perPublish := float64(ms.TotalAlloc-before) / rounds
	st := sess.Report().Serve
	t.Logf("%.0f bytes/publish (epochs=%d, dirty/publish=%.1f, chunks copied %d of %d)",
		perPublish, st.Epochs, float64(st.DirtyNodesSum)/float64(st.Epochs), st.CowChunksCopied, st.CowChunksTotal)
	// An O(n) publish allocates at least 4n bytes for the core array
	// copy alone; O(chunk) publishes stay well under n bytes.
	const limit = largeGraphNodes // 100 KB, vs 400 KB+ for a full copy
	if perPublish > limit {
		t.Fatalf("copy-on-write publish allocates %.0f bytes, want <= %d (O(chunk) regression)", perPublish, limit)
	}
}
