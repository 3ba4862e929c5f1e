package storage_test

import (
	"path/filepath"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graphio"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// BenchmarkNodeIndexRMAT17 times what the node table costs a graph: Open
// (the sidecar, folded) and the first Degree, which builds the node index
// from one read of the table, on Build's rmat17 (the benchmark harness's
// fixture, in Build's peeling order). It reports the blocks read per
// open: the sidecar's and the node table's.
func BenchmarkNodeIndexRMAT17(b *testing.B) {
	base := filepath.Join(b.TempDir(), "g")
	edges := gen.RMAT(17, 12, 0.57, 0.19, 0.19, 1)
	if err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: 1 << 17}); err != nil {
		b.Fatal(err)
	}
	ctr := stats.NewIOCounter(0)
	b.ReportAllocs()
	for b.Loop() {
		g, err := storage.Open(base, ctr, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Degree(0); err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
	b.ReportMetric(float64(ctr.Reads())/float64(b.N), "reads/op")
}
