// Package testutil is the shared fixture and workload vocabulary of the
// repository's randomized, conformance, and fuzz tests: deterministic
// graph fixtures (on disk and in memory), the standard mixed
// valid/invalid mutation stream, and seed plumbing that makes every
// randomized test replayable (`go test -run X -seed N`).
//
// It deliberately imports only the generator and in-memory graph layers
// — never the root kcore package or the serving stack — so that every
// test package in the repository, including the internal tests of
// packages the root package imports (internal/maintain), can use it
// without an import cycle.
package testutil

import (
	"flag"
	"path/filepath"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// seedFlag lets a failing randomized test be replayed exactly:
// `go test ./internal/serve -run TestX -seed 12345`. Zero keeps each
// test's default seed. Registered once here; every test binary that
// imports testutil gets the flag.
var seedFlag = flag.Int64("seed", 0, "override the seed of randomized tests (0 keeps each test's default)")

// Seed resolves the seed a randomized test should use — the -seed flag
// when set, the test's default otherwise — and always logs the replay
// line, so a CI failure's log contains the exact command to reproduce it.
func Seed(tb testing.TB, def int64) int64 {
	seed := def
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	tb.Logf("seed=%d (replay: go test -run '^%s$' -seed %d)", seed, tb.Name(), seed)
	return seed
}

// WriteSocial materialises the standard social fixture on disk under the
// test's temp dir and returns its path prefix (for kcore.Open) plus the
// deduplicated edge list actually stored.
func WriteSocial(tb testing.TB, n uint32, seed int64) (base string, edges []graph.Edge) {
	tb.Helper()
	csr := gen.Build(gen.Social(n, 3, 8, 8, seed))
	return WriteCSR(tb, csr), csr.EdgeList()
}

// WriteEdges materialises an explicit edge list over n nodes on disk and
// returns its path prefix.
func WriteEdges(tb testing.TB, n uint32, edges []graph.Edge) string {
	tb.Helper()
	csr, err := memgraph.FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return WriteCSR(tb, csr)
}

// WriteCSR writes csr into the test's temp dir and returns the path
// prefix to open it from.
func WriteCSR(tb testing.TB, csr *memgraph.CSR) string {
	tb.Helper()
	base := filepath.Join(tb.TempDir(), "g")
	if err := storage.WriteGraph(faultfs.OS, base, csr, stats.NewIOCounter(0), false); err != nil {
		tb.Fatal(err)
	}
	return base
}

// Family is one generator family of the disk property tests: its name
// and its edges at a seed.
type Family struct {
	Name  string
	Edges func(seed int64) []graph.Edge
}

// Families are the generator families the disk property tests build
// their fixtures from, 2,000 to 3,000 nodes each: uniform, preferential
// attachment, skewed R-MAT, web, social and a ring lattice whose ids
// already place neighbours together.
var Families = []Family{
	{"er", func(s int64) []graph.Edge { return gen.ErdosRenyi(3000, 15000, s) }},
	{"ba", func(s int64) []graph.Edge { return gen.BarabasiAlbert(3000, 4, s) }},
	{"rmat", func(s int64) []graph.Edge { return gen.RMAT(11, 12, 0.57, 0.19, 0.19, s) }},
	{"web", func(s int64) []graph.Edge { return gen.WebGraph(10, 8, 20, 50, s) }},
	{"social", func(s int64) []graph.Edge { return gen.Social(3000, 4, 12, 12, s) }},
	{"smallworld", func(s int64) []graph.Edge { return gen.SmallWorld(3000, 6, 0.1, s) }},
}

// The I/O gates' graph is RMAT(13, 12) at seed 1. Its 4-byte-per-arc
// edge table of format version 1, GateV1Bytes, was 2.42 times the
// default 64 frames of 4 KiB the gates read through; the encoded table
// would nearly fit them, so the gates read through GateFrames, which it
// overflows by at least as much.
const GateV1Bytes = 635304

// GateEdges generates the gates' graph.
func GateEdges() []graph.Edge { return gen.RMAT(13, 12, .57, .19, .19, 1) }

// GateGraph builds the gates' graph with graphio.Build, in the peeling
// order Build writes, under the test's temp dir, and returns its path
// prefix and the generated edges.
func GateGraph(tb testing.TB) (base string, edges []graph.Edge) {
	tb.Helper()
	edges = GateEdges()
	base = filepath.Join(tb.TempDir(), "g")
	if err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{}); err != nil {
		tb.Fatal(err)
	}
	return base, edges
}

// GateFrames is the count of 4 KiB frames the gates read the gate graph
// at base through: SpillFrames at the ratio of GateV1Bytes to 64 frames.
func GateFrames(tb testing.TB, base string) int {
	tb.Helper()
	return SpillFrames(tb, base, 4096, GateV1Bytes/(4096*64.0))
}

// SpillFrames returns the largest count of blockSize-byte frames whose
// cache the edge table of the graph at base still overflows by ratio, so
// that a gate's frames follow its table's size instead of being tuned to
// it. It fails tb below one frame.
func SpillFrames(tb testing.TB, base string, blockSize int, ratio float64) int {
	tb.Helper()
	m, err := storage.ReadMeta(base)
	if err != nil {
		tb.Fatal(err)
	}
	frames := int(float64(m.EtBytes) / (ratio * float64(blockSize)))
	if frames < 1 {
		tb.Fatalf("fixture %s: its %d-byte edge table is below %.2f times one frame of %d bytes, the least its gate needs", base, m.EtBytes, ratio, blockSize)
	}
	return frames
}

// RequireSpill fails tb unless the edge table of the graph at base is at
// least ratio times a cache of frames blocks of blockSize bytes. An I/O
// gate passes the ratio its fixture held on the 4-byte-per-arc tables of
// format version 1: the encoded tables are about half that size, and a
// gate whose graph shrank into its frames would count no misses and pass
// on nothing. Gates on a fixed tiny cache call it; the others take
// SpillFrames.
func RequireSpill(tb testing.TB, base string, blockSize, frames int, ratio float64) {
	tb.Helper()
	if most := SpillFrames(tb, base, blockSize, ratio); most < frames {
		tb.Fatalf("fixture %s: its edge table overflows %d frames of %d bytes by %.2f, not the %d its gate needs", base, most, blockSize, ratio, frames)
	}
}
