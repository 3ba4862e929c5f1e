package maintain

import (
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/verify"
)

// FuzzMaintenanceSequence interprets fuzz bytes as an edit program over a
// small fixed graph — each byte pair selects an endpoint pair; present
// edges are deleted, absent ones inserted, alternating between the two
// insertion algorithms — and cross-checks the maintained state against
// recomputation at the end. `go test` exercises the seed corpus; `go
// test -fuzz=FuzzMaintenanceSequence ./internal/maintain` explores.
func FuzzMaintenanceSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 8, 8, 7, 0, 8, 3, 7})
	f.Add([]byte{1, 14, 9, 2, 2, 9, 13, 4, 0, 15})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 64 {
			program = program[:64]
		}
		base := gen.Build(gen.SmallWorld(16, 2, 0.3, 42))
		s := newFuzzSession(t, base)
		shadow := map[[2]uint32]bool{}
		graph.Edges(base, func(e graph.Edge) error {
			shadow[[2]uint32{e.U, e.V}] = true
			return nil
		})
		for i := 0; i+1 < len(program); i += 2 {
			u := uint32(program[i]) % 16
			v := uint32(program[i+1]) % 16
			if u == v {
				continue
			}
			key := [2]uint32{min32(u, v), max32(u, v)}
			var err error
			if shadow[key] {
				_, err = s.DeleteStar(u, v)
				delete(shadow, key)
			} else {
				if i%4 == 0 {
					_, err = s.InsertStar(u, v)
				} else {
					_, err = s.InsertTwoPhase(u, v)
				}
				shadow[key] = true
			}
			if err != nil {
				t.Fatalf("op %d (%d,%d): %v", i/2, u, v, err)
			}
		}
		if err := s.VerifyState(); err != nil {
			t.Fatal(err)
		}
		edges := make([]graph.Edge, 0, len(shadow))
		for k := range shadow {
			edges = append(edges, graph.Edge{U: k[0], V: k[1]})
		}
		ref, err := memgraph.FromEdges(16, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := verify.CoresByRepeatedRemoval(ref)
		for v := range want {
			if s.Core()[v] != want[v] {
				t.Fatalf("core(%d) = %d, want %d", v, s.Core()[v], want[v])
			}
		}
	})
}

func newFuzzSession(t *testing.T, g *memgraph.CSR) *Session {
	t.Helper()
	return newSessionFor(t, g, dyngraph.Options{BufferArcs: 8})
}
