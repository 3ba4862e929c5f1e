// Package maintain implements the paper's semi-external core maintenance:
// SemiDelete* (Algorithm 6), the two-phase SemiInsert (Algorithm 7) and
// the one-phase SemiInsert* (Algorithm 8). A Session owns the persistent
// node state — the core numbers and the Eq. 2 support counters cnt — and
// keeps both exact across arbitrary interleaved edge insertions and
// deletions on the dynamic graph (internal/dyngraph.Graph: the paper's
// disk-plus-buffer scheme, whatever layout the disk half is read from).
// Every operation's passes run on semicore.Passes, the one UpdateRange
// engine; the per-operation scratch is one status byte per node.
package maintain

import (
	"fmt"
	"time"

	"kcore/internal/dyngraph"
	"kcore/internal/graph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
)

// Session is a maintenance session over a dynamic graph.
type Session struct {
	G  *dyngraph.Graph
	St *semicore.State

	// status is Algorithm 8's per-node status byte, which also holds
	// Algorithm 7's active flag: n bytes, all φ between operations.
	// marked lists the nodes the running operation moved off φ; endOp
	// resets exactly those, so no operation pays an O(n) clear.
	status []uint8
	marked []uint32
	// Trace, when non-nil, observes each iteration of each operation.
	Trace semicore.Trace
}

// Node statuses: φ, and Algorithm 7's active flag or Algorithm 8's ?, √
// and ×.
const (
	statusNone   uint8 = iota // φ: not expanded
	statusActive              // Algorithm 7: a candidate of phase 1
	statusMaybe               // ?: expanded, cnt* not yet calculated
	statusRaised              // √: cnt* calculated, >= cold+1 so far
	statusDenied              // ×: cnt* calculated, < cold+1 (terminal)
)

// NewSession decomposes the graph with SemiCore* and wraps the resulting
// state for maintenance.
func NewSession(g *dyngraph.Graph, mem *stats.MemModel) (*Session, error) {
	res, err := semicore.SemiCoreStar(g, &semicore.Options{Mem: mem})
	if err != nil {
		return nil, err
	}
	return SessionFrom(g, &semicore.State{Core: res.Core, Cnt: res.Cnt}), nil
}

// SessionFrom wraps an existing converged state (e.g. a SemiCore*
// result). The caller asserts that core/cnt are exact for g.
func SessionFrom(g *dyngraph.Graph, st *semicore.State) *Session {
	return &Session{G: g, St: st, status: make([]uint8, g.NumNodes())}
}

// Core returns the live core array (valid after every operation).
func (s *Session) Core() []uint32 { return s.St.Core }

// Cnt returns the live support counters.
func (s *Session) Cnt() []int32 { return s.St.Cnt }

// setStatus moves v to status st, recording it for endOp when it leaves φ.
func (s *Session) setStatus(v uint32, st uint8) {
	if s.status[v] == statusNone {
		s.marked = append(s.marked, v)
	}
	s.status[v] = st
}

// endOp returns every node the operation marked to φ.
func (s *Session) endOp() {
	for _, v := range s.marked {
		s.status[v] = statusNone
	}
	s.marked = s.marked[:0]
}

// DeleteStar removes edge {u,v} and repairs core/cnt with Algorithm 6:
// after a deletion the old core numbers are still upper bounds (Theorem
// 3.1), so adjusting the two endpoint counters and re-running the
// SemiCore* converge loop from the endpoint window suffices. It is
// BatchDelete of the one edge.
func (s *Session) DeleteStar(u, v uint32) (stats.RunStats, error) {
	rs, err := s.BatchDelete([]graph.Edge{{U: u, V: v}})
	rs.Algorithm = "SemiDelete*"
	return rs, err
}

// insertPrologue performs lines 1-5 of Algorithm 7, shared with Algorithm
// 8: insert the edge, orient (u,v) so core(u) <= core(v), and update the
// endpoint support counters for the new edge.
func (s *Session) insertPrologue(u, v uint32) (uint32, uint32, uint32, error) {
	if err := s.G.InsertEdge(u, v); err != nil {
		return 0, 0, 0, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	if core[u] > core[v] {
		u, v = v, u
	}
	cnt[u]++ // v has core >= core(u), so it supports u
	if core[v] == core[u] {
		cnt[v]++
	}
	return u, v, core[u], nil
}

// InsertTwoPhase adds edge {u,v} with SemiInsert (Algorithm 7): phase one
// floods the pure-core candidate set Vc reachable from the lower endpoint
// and optimistically raises every candidate by one; phase two re-runs the
// SemiCore* converge loop, which lowers the over-raised nodes back.
func (s *Session) InsertTwoPhase(u, v uint32) (stats.RunStats, error) {
	start := time.Now()
	rs := stats.RunStats{Algorithm: "SemiInsert"}
	defer s.endOp()
	u, _, cold, err := s.insertPrologue(u, v)
	if err != nil {
		return rs, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	s.setStatus(u, statusActive)
	p := semicore.Passes{Stats: &rs, Trace: s.Trace, Core: core}
	pu := graph.Pos(s.G.Positions(), u)
	err = p.Run(s.G, pu, pu,
		func(w uint32) bool { return s.status[w] == statusActive && core[w] == cold },
		func(w uint32, nbrs []uint32) error {
			core[w] = cold + 1
			rs.Dirty = append(rs.Dirty, w)
			p.Computed(w, true)
			cnt[w] = s.St.ComputeCnt(nbrs, core[w])
			for _, x := range nbrs {
				if core[x] == cold+1 {
					cnt[x]++
				}
			}
			for _, x := range nbrs {
				if core[x] == cold && s.status[x] == statusNone {
					s.setStatus(x, statusActive)
					p.Mark(x)
				}
			}
			return nil
		})
	if err != nil {
		return rs, err
	}

	// Phase 2 (lines 22-25): every candidate now carries a valid upper
	// bound; converge over the window of the nodes phase 1 activated, the
	// lowest and highest of their positions.
	pmin, pmax := semicore.Window(s.G, s.marked)
	if err := s.St.Converge(s.G, pmin, pmax, &rs, s.Trace); err != nil {
		return rs, err
	}
	rs.Duration = time.Since(start)
	return rs, nil
}

// InsertStar adds edge {u,v} with SemiInsert* (Algorithm 8): a single
// expansion phase whose statuses (φ, ?, √, ×) drive the speculative
// counter cnt* of Eq. 4; nodes that end √ keep core cold+1 and no
// separate converge phase is needed (Theorem 5.1).
//
// One bookkeeping correction relative to the printed pseudocode (see
// docs/ARCHITECTURE.md, "Deviations from the paper"): the Eq. 2
// neighbour increments of lines 11-12 (and the corresponding decrements
// of lines 22-23) apply only to neighbours whose status is not √, because
// a √ neighbour already counted this node speculatively inside its own
// ComputeCnt*.
func (s *Session) InsertStar(u, v uint32) (stats.RunStats, error) {
	start := time.Now()
	rs := stats.RunStats{Algorithm: "SemiInsert*"}
	defer s.endOp()
	u, _, cold, err := s.insertPrologue(u, v)
	if err != nil {
		return rs, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	s.setStatus(u, statusMaybe)
	p := semicore.Passes{Stats: &rs, Trace: s.Trace, Core: core}
	pu := graph.Pos(s.G.Positions(), u)
	err = p.Run(s.G, pu, pu,
		func(w uint32) bool {
			st := s.status[w]
			return st == statusMaybe ||
				(st == statusRaised && cnt[w] < int32(cold)+1)
		},
		func(w uint32, nbrs []uint32) error {
			p.Computed(w, true)
			if s.status[w] == statusMaybe {
				// ? -> √ (lines 7-12): compute cnt* and raise.
				cnt[w] = s.computeCntStar(nbrs, cold)
				s.status[w] = statusRaised
				core[w] = cold + 1
				for _, x := range nbrs {
					if core[x] == cold+1 && s.status[x] != statusRaised {
						cnt[x]++
					}
				}
				if cnt[w] >= int32(cold)+1 {
					// φ -> ? expansion (lines 13-17), pruned by
					// Lemma 5.3 (only plausible candidates).
					for _, x := range nbrs {
						if core[x] == cold && cnt[x] >= int32(cold)+1 && s.status[x] == statusNone {
							s.setStatus(x, statusMaybe)
							p.Mark(x)
						}
					}
				}
			}
			if s.status[w] == statusRaised && cnt[w] < int32(cold)+1 {
				// √ -> × (lines 18-27): revert and propagate.
				cnt[w] = s.St.ComputeCnt(nbrs, cold)
				s.status[w] = statusDenied
				core[w] = cold
				for _, x := range nbrs {
					if core[x] == cold+1 && s.status[x] != statusRaised {
						cnt[x]--
					}
				}
				for _, x := range nbrs {
					if s.status[x] == statusRaised {
						cnt[x]--
						if cnt[x] < int32(cold)+1 {
							p.Mark(x)
						}
					}
				}
			}
			return nil
		})
	if err != nil {
		return rs, err
	}
	// Every marked node was raised once; only the survivors (still at
	// cold+1, i.e. ending √) changed — the reverted ones are back at
	// cold. Reporting the exact set keeps Dirty O(changed) even when the
	// candidate flood was large.
	for _, w := range s.marked {
		if core[w] == cold+1 {
			rs.Dirty = append(rs.Dirty, w)
		}
	}
	rs.Duration = time.Since(start)
	return rs, nil
}

// computeCntStar is the ComputeCnt* procedure (Algorithm 8 lines 29-33):
// cnt*(v') counts neighbours that either already exceed cold or are
// still-plausible candidates (core = cold, cnt >= cold+1, not ×).
func (s *Session) computeCntStar(nbrs []uint32, cold uint32) int32 {
	core, cnt := s.St.Core, s.St.Cnt
	var c int32
	for _, x := range nbrs {
		if core[x] > cold {
			c++
		} else if core[x] == cold && cnt[x] >= int32(cold)+1 && s.status[x] != statusDenied {
			c++
		}
	}
	return c
}

// VerifyState recomputes Eq. 2 for every node and compares against the
// maintained counters; tests call it after operations.
func (s *Session) VerifyState() error {
	core, cnt := s.St.Core, s.St.Cnt
	return graph.ScanAll(s.G, func(v uint32, nbrs []uint32) error {
		var want int32
		for _, x := range nbrs {
			if core[x] >= core[v] {
				want++
			}
		}
		if cnt[v] != want {
			return fmt.Errorf("maintain: cnt(%d) = %d, want %d (core %d)", v, cnt[v], want, core[v])
		}
		if cnt[v] < int32(core[v]) {
			return fmt.Errorf("maintain: node %d violates cnt >= core (%d < %d)", v, cnt[v], core[v])
		}
		return nil
	})
}
