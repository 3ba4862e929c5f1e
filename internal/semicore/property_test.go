package semicore_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kcore/internal/gen"
	"kcore/internal/semicore"
	"kcore/internal/testutil"
	"kcore/internal/verify"
)

// TestPropertyRandomGraphsAllVariants quick-checks all three variants
// against the reference on randomly seeded graphs from two generator
// families.
func TestPropertyRandomGraphsAllVariants(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		var g = gen.Build(gen.ErdosRenyi(120, 350, seed))
		if dense {
			g = gen.Build(gen.RMAT(7, 8, 0.57, 0.19, 0.19, seed))
		}
		want := verify.CoresByRepeatedRemoval(g)
		basic, err := semicore.SemiCore(g, nil)
		if err != nil {
			return false
		}
		plus, err := semicore.SemiCorePlus(g, nil)
		if err != nil {
			return false
		}
		star, err := semicore.SemiCoreStar(g, nil)
		if err != nil {
			return false
		}
		for v := range want {
			if basic.Core[v] != want[v] || plus.Core[v] != want[v] || star.Core[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(testutil.Seed(t, 105)))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEstimatesMonotone asserts the upper-bound invariant the
// whole framework rests on: during any run, no node's estimate ever
// increases, and every intermediate estimate dominates the true core.
func TestPropertyEstimatesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Build(gen.BarabasiAlbert(100, 3, seed))
		want := verify.CoresByRepeatedRemoval(g)
		prev := make([]uint32, g.NumNodes())
		for v := range prev {
			prev[v] = g.Degree(uint32(v))
		}
		ok := true
		trace := func(iter int, computed []uint32, core []uint32) {
			for v := range core {
				if core[v] > prev[v] || core[v] < want[v] {
					ok = false
				}
				prev[v] = core[v]
			}
		}
		if _, err := semicore.SemiCoreStar(g, &semicore.Options{Trace: trace}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(testutil.Seed(t, 106)))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIterationCountsOrdered: SemiCore* never needs more
// iterations than SemiCore (it skips work, never adds passes; both are
// bounded by the same propagation depth).
func TestPropertyIterationCountsOrdered(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Build(gen.WebGraph(6, 4, 4, 12, seed))
		basic, err := semicore.SemiCore(g, nil)
		if err != nil {
			return false
		}
		star, err := semicore.SemiCoreStar(g, nil)
		if err != nil {
			return false
		}
		return star.Stats.Iterations <= basic.Stats.Iterations+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(testutil.Seed(t, 107)))}); err != nil {
		t.Fatal(err)
	}
}
