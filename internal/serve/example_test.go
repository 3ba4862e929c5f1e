package serve_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"kcore"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// ExampleConcurrentSession serves lock-free epoch snapshots while edge
// updates stream through the ingest queue: readers call Snapshot (one
// atomic load), writers call Apply/Enqueue, and Sync is the
// read-your-writes barrier. A k-core query (KCoreAt) reads the epoch
// it is asked of and nothing else.
func ExampleConcurrentSession() {
	// Materialise a small deterministic graph on disk.
	dir, err := os.MkdirTemp("", "kcore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g")
	if err := storage.WriteGraph(faultfs.OS, base, gen.Build(gen.Social(100, 3, 8, 8, 1)), stats.NewIOCounter(0), false); err != nil {
		log.Fatal(err)
	}
	g, err := kcore.Open(base, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	// New decomposes the graph and publishes it as epoch 0.
	sess, err := serve.New(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	before := sess.Snapshot()
	fmt.Printf("epoch %d: %d nodes, kmax %d\n", before.Seq, before.NumNodes(), before.Kmax)
	fmt.Printf("3-core size: %d\n", len(before.KCoreAt(3)))

	// Delete the first edge of the graph; Apply waits until the update
	// is published as a new epoch.
	edge := struct{ u, v uint32 }{0, 0}
	err = g.VisitEdges(func(u, v uint32) error {
		if edge.u == edge.v {
			edge.u, edge.v = u, v
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Apply(serve.Update{Op: serve.OpDelete, U: edge.u, V: edge.v}); err != nil {
		log.Fatal(err)
	}

	after := sess.Snapshot()
	fmt.Printf("epoch %d: applied %d update(s)\n", after.Seq, after.Applied)
	// The old epoch is immutable: it still reports the pre-delete state.
	fmt.Printf("old epoch still at %d edges, new at %d\n", before.NumEdges, after.NumEdges)

	// Output:
	// epoch 0: 100 nodes, kmax 6
	// 3-core size: 98
	// epoch 1: applied 1 update(s)
	// old epoch still at 364 edges, new at 363
}
