package maintain

import (
	"testing"

	"kcore/internal/dyngraph"
	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/testutil"
)

// dirtyTracker drives a randomized mutation workload through one Session
// and checks, after every operation, the soundness contract of
// RunStats.Dirty: every node whose core number differs from before the
// operation must appear in the reported dirty set. (The set may be a
// superset and may contain duplicates — that is allowed by contract and
// exercised here too: the serving layer's O(changed) publication is only
// correct if no changed node is ever missing.)
type dirtyTracker struct {
	t      *testing.T
	s      *Session
	before []uint32
}

func newDirtyTracker(t *testing.T, s *Session) *dirtyTracker {
	return &dirtyTracker{t: t, s: s, before: append([]uint32(nil), s.Core()...)}
}

func (d *dirtyTracker) check(op string, rs stats.RunStats, err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatalf("%s: %v", op, err)
	}
	dirty := make(map[uint32]struct{}, len(rs.Dirty))
	for _, v := range rs.Dirty {
		dirty[v] = struct{}{}
	}
	for v, c := range d.s.Core() {
		if c == d.before[v] {
			continue
		}
		if _, ok := dirty[uint32(v)]; !ok {
			d.t.Fatalf("%s: core(%d) changed %d -> %d but node is missing from Dirty (%d entries)",
				op, v, d.before[v], c, len(rs.Dirty))
		}
	}
	copy(d.before, d.s.Core())
}

// TestDirtySetIsSound interleaves single-edge and batch operations of
// every maintenance algorithm over random graphs, verifying the dirty
// set after each one against a full before/after core diff.
func TestDirtySetIsSound(t *testing.T) {
	for name, g := range corpus(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			if g.NumEdges() < 40 {
				t.Skip("too few edges")
			}
			s := newSessionFor(t, g, dyngraph.Options{})
			d := newDirtyTracker(t, s)
			stream := testutil.NewMutationStream(g.NumNodes(), testutil.Seed(t, 811), g.EdgeList())
			takeLive := func() graph.Edge {
				e, ok := stream.TakeLive()
				if !ok {
					t.Fatal("mirror ran out of live edges")
				}
				return e
			}
			makeAbsent := stream.MakeAbsent

			for step := 0; step < 40; step++ {
				switch step % 5 {
				case 0:
					e := takeLive()
					rs, err := s.DeleteStar(e.U, e.V)
					d.check("DeleteStar", rs, err)
				case 1:
					e := makeAbsent()
					rs, err := s.InsertStar(e.U, e.V)
					d.check("InsertStar", rs, err)
				case 2:
					e := makeAbsent()
					rs, err := s.InsertTwoPhase(e.U, e.V)
					d.check("InsertTwoPhase", rs, err)
				case 3:
					batch := []graph.Edge{takeLive(), takeLive(), takeLive()}
					rs, err := s.BatchDelete(batch)
					d.check("BatchDelete", rs, err)
				case 4:
					batch := []graph.Edge{makeAbsent(), makeAbsent(), makeAbsent()}
					rs, err := s.BatchInsert(batch, false)
					d.check("BatchInsert", rs, err)
				}
				if err := s.VerifyState(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}
