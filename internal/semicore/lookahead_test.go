package semicore

import (
	"fmt"
	"path/filepath"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graphio"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/verify"
)

// starOnDisk decomposes the on-disk graph at base with SemiCore* under
// either recompute rule and returns the result with the block reads it
// cost (1 KiB blocks, so the small fixtures still span many blocks).
func starOnDisk(t *testing.T, base string, paperRule bool) (*Result, int64) {
	t.Helper()
	ctr := stats.NewIOCounter(1024)
	g, err := storage.Open(base, ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := semiCoreStar(g, nil, paperRule)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctr.Reads()
}

// TestLookaheadMatchesOracleAndNeverReadsMore runs SemiCore* with the
// violation lookahead and with the paper's rule over the block-counted
// disk tables of every generator family: both must land on the oracle's
// cores with exact counters, and the lookahead must never pay more block
// reads than the rule it replaces (strictly fewer on the skewed RMAT).
func TestLookaheadMatchesOracleAndNeverReadsMore(t *testing.T) {
	seed := testutil.Seed(t, 1)
	families := []struct {
		name     string
		edges    func(seed int64) []memgraph.Edge
		strictly bool
	}{
		{"er", func(s int64) []memgraph.Edge { return gen.ErdosRenyi(3000, 15000, s) }, false},
		{"ba", func(s int64) []memgraph.Edge { return gen.BarabasiAlbert(3000, 4, s) }, false},
		{"rmat", func(s int64) []memgraph.Edge { return gen.RMAT(11, 12, 0.57, 0.19, 0.19, s) }, true},
		{"web", func(s int64) []memgraph.Edge { return gen.WebGraph(10, 8, 20, 50, s) }, false},
		{"social", func(s int64) []memgraph.Edge { return gen.Social(3000, 4, 12, 12, s) }, false},
		{"smallworld", func(s int64) []memgraph.Edge { return gen.SmallWorld(3000, 6, 0.1, s) }, false},
	}
	for _, fam := range families {
		for i := int64(0); i < 3; i++ {
			fam, s := fam, seed+i
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, s), func(t *testing.T) {
				edges := fam.edges(s)
				csr := gen.Build(edges)
				base := filepath.Join(t.TempDir(), "g")
				err := graphio.Build(base, graphio.SliceSource(edges), graphio.BuildOptions{N: csr.NumNodes()})
				if err != nil {
					t.Fatal(err)
				}
				look, lookReads := starOnDisk(t, base, false)
				paper, paperReads := starOnDisk(t, base, true)

				want := imcore.Decompose(csr, nil).Core
				for _, res := range []*Result{look, paper} {
					if err := verify.CheckAgainst(csr, res.Core); err != nil {
						t.Fatal(err)
					}
					cnt := verify.CntFor(csr, res.Core)
					for v := range want {
						if res.Core[v] != want[v] {
							t.Fatalf("core(%d) = %d, imcore says %d", v, res.Core[v], want[v])
						}
						if res.Cnt[v] != cnt[v] {
							t.Fatalf("cnt(%d) = %d, want %d", v, res.Cnt[v], cnt[v])
						}
					}
				}
				t.Logf("block reads: lookahead %d, paper's rule %d; node computations %d vs %d",
					lookReads, paperReads, look.Stats.NodeComputations, paper.Stats.NodeComputations)
				if lookReads > paperReads || (fam.strictly && lookReads == paperReads) {
					t.Fatalf("lookahead read %d blocks, the paper's rule %d", lookReads, paperReads)
				}
			})
		}
	}
}

// BenchmarkLocalCore microbenchmarks one locality-equation evaluation
// (the inner loop every semi-external algorithm shares) on the
// highest-degree node of a skewed graph, under both neighbour rules.
func BenchmarkLocalCore(b *testing.B) {
	csr := gen.Build(gen.RMAT(14, 12, 0.57, 0.19, 0.19, 1))
	var v uint32
	for u := uint32(0); u < csr.NumNodes(); u++ {
		if csr.Degree(u) > csr.Degree(v) {
			v = u
		}
	}
	res, err := SemiCoreStar(csr, nil)
	if err != nil {
		b.Fatal(err)
	}
	nbrs := csr.Neighbors(v)
	deg := uint32(len(nbrs))
	for _, bc := range []struct {
		name string
		cnt  []int32
	}{{"lookahead", res.Cnt}, {"stored", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf localCoreBuf
			for i := 0; i < b.N; i++ {
				if buf.localCore(deg, nbrs, res.Core, bc.cnt) == 0 {
					b.Fatal("zero core for hub node")
				}
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}
