package imcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kcore/internal/gen"
	"kcore/internal/testutil"
	"kcore/internal/verify"
)

// TestPropertyDecomposeRandom quick-checks the bin-sort peel against the
// reference over random generator seeds.
func TestPropertyDecomposeRandom(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		g := gen.Build(gen.ErdosRenyi(150, 400, seed))
		if dense {
			g = gen.Build(gen.RMAT(7, 10, 0.57, 0.19, 0.19, seed))
		}
		res := Decompose(g, nil)
		return verify.CheckAgainst(g, res.Core) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(testutil.Seed(t, 103)))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMaintainerRandom quick-checks maintenance sequences against
// recomputation with randomised seeds (shorter sequences than the fixed
// corpus test, but across many graphs).
func TestPropertyMaintainerRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Build(gen.BarabasiAlbert(80, 3, seed))
		m := NewMaintainer(NewDynGraph(g))
		r := rand.New(rand.NewSource(seed + 7))
		for i := 0; i < 15; i++ {
			u := uint32(r.Intn(80))
			v := uint32(r.Intn(80))
			if u == v {
				continue
			}
			if m.G.HasEdge(u, v) {
				if _, err := m.Delete(u, v); err != nil {
					return false
				}
			} else {
				if _, err := m.Insert(u, v); err != nil {
					return false
				}
			}
		}
		return m.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(testutil.Seed(t, 104)))}); err != nil {
		t.Fatal(err)
	}
}
