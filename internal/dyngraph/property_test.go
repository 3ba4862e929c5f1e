package dyngraph_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
)

// TestPropertyChurnEquivalence drives random edit sequences with random
// compaction thresholds against the in-memory mutable-adjacency oracle.
func TestPropertyChurnEquivalence(t *testing.T) { onEachDriver(t, testPropertyChurnEquivalence) }

func testPropertyChurnEquivalence(t *testing.T, open driverOpen) {
	f := func(seed int64, smallBuffer bool) bool {
		// Exactly 60 nodes whatever the sample: gen.Build sizes the graph
		// by its highest id, and a sample that misses node 59 (about one
		// in 150) used to fail the case on the first edit that drew it.
		src, err := memgraph.FromEdges(60, gen.ErdosRenyi(60, 150, seed))
		if err != nil {
			return false
		}
		buf := 1 << 30
		if smallBuffer {
			buf = 8
		}
		g := open(src, dyngraph.Options{BufferArcs: buf})
		ref := imcore.NewDynGraph(src)
		r := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 80; i++ {
			u := uint32(r.Intn(60))
			v := uint32(r.Intn(60))
			if u == v {
				continue
			}
			if has, err := g.HasEdge(u, v); err != nil {
				return false
			} else if has {
				if g.DeleteEdge(u, v) != nil || ref.Delete(u, v) != nil {
					return false
				}
			} else {
				if g.InsertEdge(u, v) != nil || ref.Insert(u, v) != nil {
					return false
				}
			}
		}
		if g.NumEdges() != ref.NumEdges() {
			return false
		}
		for v := uint32(0); v < 60; v++ {
			got, err := g.Neighbors(v, nil)
			if err != nil {
				return false
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.Neighbors(v)) {
				return false
			}
			d, err := g.Degree(v)
			if err != nil || d != ref.Degree(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
