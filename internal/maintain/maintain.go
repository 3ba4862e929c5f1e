// Package maintain implements the paper's semi-external core maintenance:
// SemiDelete* (Algorithm 6), the two-phase SemiInsert (Algorithm 7) and
// the one-phase SemiInsert* (Algorithm 8). A Session owns the persistent
// node state — the core numbers and the Eq. 2 support counters cnt — and
// keeps both exact across arbitrary interleaved edge insertions and
// deletions on the dynamic graph (internal/dyngraph.Graph: the paper's
// disk-plus-buffer scheme, whatever layout the disk half is read from).
package maintain

import (
	"fmt"
	"time"

	"kcore/internal/dyngraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
)

// Session is a maintenance session over a dynamic graph.
type Session struct {
	G  *dyngraph.Graph
	St *semicore.State

	// Reusable per-operation scratch, epoch-versioned so each operation
	// starts from "all φ / all inactive" without an O(n) clear.
	epoch       uint32
	activeEpoch []uint32
	status      []uint8
	statusEpoch []uint32
	// dirtyBuf collects speculative core raises during InsertStar; the
	// survivors are copied into RunStats.Dirty at the end, so the churn
	// of the (possibly large) candidate flood is amortised across
	// operations instead of reallocated per call.
	dirtyBuf []uint32
	// Trace, when non-nil, observes each iteration of each operation.
	Trace semicore.Trace
}

// Node statuses of Algorithm 8.
const (
	statusNone   uint8 = iota // φ: not expanded
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
	st, err := semicore.StateFrom(res.Core, res.Cnt)
	if err != nil {
		return nil, err
	}
	return newSession(g, st), nil
}

// SessionFrom wraps an existing converged state (e.g. loaded from a
// snapshot). The caller asserts that core/cnt are exact for g.
func SessionFrom(g *dyngraph.Graph, st *semicore.State) *Session {
	return newSession(g, st)
}

func newSession(g *dyngraph.Graph, st *semicore.State) *Session {
	n := g.NumNodes()
	return &Session{
		G:           g,
		St:          st,
		activeEpoch: make([]uint32, n),
		status:      make([]uint8, n),
		statusEpoch: make([]uint32, n),
	}
}

// Core returns the live core array (valid after every operation).
func (s *Session) Core() []uint32 { return s.St.Core }

// Cnt returns the live support counters.
func (s *Session) Cnt() []int32 { return s.St.Cnt }

func (s *Session) active(v uint32) bool { return s.activeEpoch[v] == s.epoch }
func (s *Session) setActive(v uint32)   { s.activeEpoch[v] = s.epoch }

func (s *Session) stat(v uint32) uint8 {
	if s.statusEpoch[v] != s.epoch {
		return statusNone
	}
	return s.status[v]
}

func (s *Session) setStat(v uint32, st uint8) {
	s.statusEpoch[v] = s.epoch
	s.status[v] = st
}

// beginOp advances the epoch, resetting all per-operation flags.
func (s *Session) beginOp(algorithm string) stats.RunStats {
	s.epoch++
	if s.epoch == 0 { // wrapped: do the rare O(n) clear
		for i := range s.activeEpoch {
			s.activeEpoch[i] = 0
			s.statusEpoch[i] = 0
		}
		s.epoch = 1
	}
	return stats.RunStats{Algorithm: algorithm}
}

// DeleteStar removes edge {u,v} and repairs core/cnt with Algorithm 6:
// after a deletion the old core numbers are still upper bounds (Theorem
// 3.1), so adjusting the two endpoint counters and re-running the
// SemiCore* converge loop from the endpoint window suffices.
func (s *Session) DeleteStar(u, v uint32) (stats.RunStats, error) {
	start := time.Now()
	rs := s.beginOp("SemiDelete*")
	if err := s.G.DeleteEdge(u, v); err != nil {
		return rs, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	var vmin, vmax uint32
	switch {
	case core[u] < core[v]:
		cnt[u]--
		vmin, vmax = u, u
	case core[v] < core[u]:
		cnt[v]--
		vmin, vmax = v, v
	default:
		cnt[u]--
		cnt[v]--
		vmin, vmax = u, v
		if vmin > vmax {
			vmin, vmax = vmax, vmin
		}
	}
	if err := s.St.Converge(s.G, vmin, vmax, &rs, s.Trace); err != nil {
		return rs, err
	}
	rs.Duration = time.Since(start)
	return rs, nil
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
	rs := s.beginOp("SemiInsert")
	u, _, cold, err := s.insertPrologue(u, v)
	if err != nil {
		return rs, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	s.setActive(u)
	touchedMin, touchedMax := u, u

	vmin, vmax := u, u
	var computed []uint32
	for update := true; update; {
		update = false
		nextMin, nextMax := int64(s.G.NumNodes()), int64(-1)
		curMax := vmax
		computed = computed[:0]
		err := s.G.ScanDynamic(vmin,
			func() uint32 { return curMax },
			func(w uint32) bool { return s.active(w) && core[w] == cold },
			func(w uint32, nbrs []uint32) error {
				core[w] = cold + 1
				rs.Dirty = append(rs.Dirty, w)
				rs.NodeComputations++
				computed = append(computed, w)
				cnt[w] = s.St.ComputeCnt(nbrs, core[w])
				for _, x := range nbrs {
					if core[x] == cold+1 {
						cnt[x]++
					}
				}
				for _, x := range nbrs {
					if core[x] == cold && !s.active(x) {
						s.setActive(x)
						if x < touchedMin {
							touchedMin = x
						}
						if x > touchedMax {
							touchedMax = x
						}
						// UpdateRange
						if x > curMax {
							curMax = x
						}
						if x < w {
							update = true
							if int64(x) < nextMin {
								nextMin = int64(x)
							}
							if int64(x) > nextMax {
								nextMax = int64(x)
							}
						}
					}
				}
				return nil
			})
		if err != nil {
			return rs, err
		}
		rs.Iterations++
		rs.UpdatedPerIter = append(rs.UpdatedPerIter, int64(len(computed)))
		if s.Trace != nil {
			s.Trace(rs.Iterations, computed, core)
		}
		if update {
			vmin, vmax = uint32(nextMin), uint32(nextMax)
		}
	}

	// Phase 2 (lines 22-25): every candidate now carries a valid upper
	// bound; converge over the touched window.
	if err := s.St.Converge(s.G, touchedMin, touchedMax, &rs, s.Trace); err != nil {
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
	rs := s.beginOp("SemiInsert*")
	s.dirtyBuf = s.dirtyBuf[:0]
	u, _, cold, err := s.insertPrologue(u, v)
	if err != nil {
		return rs, err
	}
	core, cnt := s.St.Core, s.St.Cnt
	s.setStat(u, statusMaybe)

	vmin, vmax := u, u
	var computed []uint32
	for update := true; update; {
		update = false
		nextMin, nextMax := int64(s.G.NumNodes()), int64(-1)
		curMax := vmax
		computed = computed[:0]
		err := s.G.ScanDynamic(vmin,
			func() uint32 { return curMax },
			func(w uint32) bool {
				st := s.stat(w)
				return st == statusMaybe ||
					(st == statusRaised && cnt[w] < int32(cold)+1)
			},
			func(w uint32, nbrs []uint32) error {
				rs.NodeComputations++
				computed = append(computed, w)
				mark := func(x uint32) {
					// UpdateRange
					if x > curMax {
						curMax = x
					}
					if x < w {
						update = true
						if int64(x) < nextMin {
							nextMin = int64(x)
						}
						if int64(x) > nextMax {
							nextMax = int64(x)
						}
					}
				}
				if s.stat(w) == statusMaybe {
					// ? -> √ (lines 7-12): compute cnt* and raise.
					cnt[w] = s.computeCntStar(nbrs, cold)
					s.setStat(w, statusRaised)
					core[w] = cold + 1
					s.dirtyBuf = append(s.dirtyBuf, w)
					for _, x := range nbrs {
						if core[x] == cold+1 && s.stat(x) != statusRaised {
							cnt[x]++
						}
					}
					if cnt[w] >= int32(cold)+1 {
						// φ -> ? expansion (lines 13-17), pruned by
						// Lemma 5.3 (only plausible candidates).
						for _, x := range nbrs {
							if core[x] == cold && cnt[x] >= int32(cold)+1 && s.stat(x) == statusNone {
								s.setStat(x, statusMaybe)
								mark(x)
							}
						}
					}
				}
				if s.stat(w) == statusRaised && cnt[w] < int32(cold)+1 {
					// √ -> × (lines 18-27): revert and propagate.
					cnt[w] = s.St.ComputeCnt(nbrs, cold)
					s.setStat(w, statusDenied)
					core[w] = cold
					for _, x := range nbrs {
						if core[x] == cold+1 && s.stat(x) != statusRaised {
							cnt[x]--
						}
					}
					for _, x := range nbrs {
						if s.stat(x) == statusRaised {
							cnt[x]--
							if cnt[x] < int32(cold)+1 {
								mark(x)
							}
						}
					}
				}
				return nil
			})
		if err != nil {
			return rs, err
		}
		rs.Iterations++
		rs.UpdatedPerIter = append(rs.UpdatedPerIter, int64(len(computed)))
		if s.Trace != nil {
			s.Trace(rs.Iterations, computed, core)
		}
		if update {
			vmin, vmax = uint32(nextMin), uint32(nextMax)
		}
	}
	// dirtyBuf holds every speculative raise; only the survivors (still
	// at cold+1, i.e. ending √) actually changed — the reverted ones are
	// back at cold. Reporting the exact set keeps Dirty O(changed) even
	// when the candidate flood was large.
	kept := 0
	for _, w := range s.dirtyBuf {
		if core[w] == cold+1 {
			s.dirtyBuf[kept] = w
			kept++
		}
	}
	rs.Dirty = append([]uint32(nil), s.dirtyBuf[:kept]...)
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
		} else if core[x] == cold && cnt[x] >= int32(cold)+1 && s.stat(x) != statusDenied {
			c++
		}
	}
	return c
}

// VerifyState recomputes Eq. 2 for every node and compares against the
// maintained counters; tests call it after operations.
func (s *Session) VerifyState() error {
	core, cnt := s.St.Core, s.St.Cnt
	n := s.G.NumNodes()
	if n == 0 {
		return nil
	}
	return s.G.Scan(0, n-1, nil, func(v uint32, nbrs []uint32) error {
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
