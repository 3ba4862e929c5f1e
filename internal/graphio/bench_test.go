package graphio

import (
	"path/filepath"
	"runtime"
	"testing"

	"kcore/internal/gen"
)

// BenchmarkBuildRMAT17 builds the benchmark harness's fixture (bench/
// fixture.go: RMAT scale 17, edge factor 12, Graph500 probabilities,
// seed 1, forced node count, default sort budget) in process, so a change
// to the build path has a number that needs no child process: run it from
// a parent and a change checkout alternately.
func BenchmarkBuildRMAT17(b *testing.B) {
	edges := gen.RMAT(17, 12, 0.57, 0.19, 0.19, 1)
	dir := b.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if err := Build(filepath.Join(dir, "g"), SliceSource(edges), BuildOptions{N: 1 << 17}); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	arcs := 2 * float64(len(edges)) * float64(b.N)
	b.ReportMetric(arcs/b.Elapsed().Seconds(), "arcs/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/(1<<20), "MB-alloc/op")
}
