package semicore

import (
	"fmt"
	"time"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// State is the persistent node state of SemiCore* (Algorithm 5): the
// intermediate core numbers and the cnt support counters of Eq. 2. The
// maintenance algorithms (6-8) mutate a State in place and re-run its
// Converge loop, so a State outlives a single decomposition.
type State struct {
	Core []uint32
	Cnt  []int32
	buf  localCoreBuf
	viol []uint32 // scratch: the violated neighbours recompute returns
	// paperRule makes recompute read neighbours' stored estimates only
	// (Algorithm 5 as printed). Nothing outside the tests sets it: they
	// measure the lookahead against it.
	paperRule bool
}

// NewState allocates zeroed state for n nodes, registering the 8n model
// bytes with mem (which may be nil).
func NewState(n uint32, mem *stats.MemModel) *State {
	if mem != nil {
		mem.Alloc("semicore*/core", int64(n)*4)
		mem.Alloc("semicore*/cnt", int64(n)*4)
	}
	return &State{
		Core: make([]uint32, n),
		Cnt:  make([]int32, n),
	}
}

// ComputeCnt evaluates Eq. 2 for a node whose core number is cv:
// cnt(v) = |{u in nbr(v) : core(u) >= cv}| (Algorithm 5, lines 16-20).
func (s *State) ComputeCnt(nbrs []uint32, cv uint32) int32 {
	var c int32
	for _, u := range nbrs {
		if s.Core[u] >= cv {
			c++
		}
	}
	return c
}

// recompute is the one recompute step of SemiCore* (Algorithm 5 lines
// 8-12 fused): apply the locality equation to v over its neighbours'
// lookahead bounds (localCoreBuf.localCore), then in a single walk set
// cnt(v) per Eq. 2 against the stored estimates, take v out of the
// support set of every neighbour u with cnew < core(u) <= cold
// (UpdateNbrCnt, lines 21-24), and collect the neighbours left with
// cnt(u) < core(u). It reports whether core(v) changed and those violated
// neighbours; the slice is scratch, valid until the next call.
//
// Invariants kept: estimates stay upper bounds, every non-negative cnt
// stays exact with respect to the stored estimates, and
// cnt(v) >= core(v) on return (at least core(v) neighbours have
// eff >= core(v), and core >= eff).
func (s *State) recompute(v uint32, nbrs []uint32, rs *stats.RunStats) (bool, []uint32) {
	core, cnt := s.Core, s.Cnt
	cold := core[v]
	look := cnt
	if s.paperRule {
		look = nil
	}
	nc := s.buf.localCore(cold, nbrs, core, look)
	rs.NodeComputations++
	core[v] = nc
	if nc != cold {
		rs.Dirty = append(rs.Dirty, v)
	}
	var support int32
	viol := s.viol[:0]
	for _, u := range nbrs {
		cu := core[u]
		if cu >= nc {
			support++
			if cu > nc && cu <= cold {
				cnt[u]--
			}
		}
		if cnt[u] < int32(cu) {
			viol = append(viol, u)
		}
	}
	cnt[v] = support
	s.viol = viol
	return nc != cold, viol
}

// Converge runs Algorithm 5 lines 4-14: starting from the window
// [vmin, vmax], repeatedly scan nodes whose cnt(v) < core(v) (the exact
// recomputation condition of Lemma 4.2), recompute their core and cnt,
// propagate cnt decrements to neighbours, and extend the window per
// UpdateRange until a full pass triggers no next-iteration work. It is
// shared verbatim by SemiCoreStar, SemiDelete* and SemiInsert's phase 2.
//
// rs accumulates iterations, node computations and per-iteration update
// counts; tr may be nil.
func (s *State) Converge(g graph.Source, vmin, vmax uint32, rs *stats.RunStats, tr Trace) error {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if vmax >= n {
		return fmt.Errorf("semicore: converge window [%d,%d] exceeds n=%d", vmin, vmax, n)
	}
	var computed []uint32
	for update := true; update; {
		update = false
		nextMin, nextMax := int64(n), int64(-1)
		curMax := vmax
		var iterUpdated int64
		computed = computed[:0]
		err := g.ScanDynamic(vmin,
			func() uint32 { return curMax },
			func(v uint32) bool { return s.Cnt[v] < int32(s.Core[v]) },
			func(v uint32, nbrs []uint32) error {
				changed, violated := s.recompute(v, nbrs, rs)
				if tr != nil {
					computed = append(computed, v)
				}
				if changed {
					iterUpdated++
				}
				for _, u := range violated {
					// UpdateRange (shared with Algorithm 4).
					if u > curMax {
						curMax = u
					}
					if u < v {
						update = true
						if int64(u) < nextMin {
							nextMin = int64(u)
						}
						if int64(u) > nextMax {
							nextMax = int64(u)
						}
					}
				}
				return nil
			})
		if err != nil {
			return err
		}
		rs.Iterations++
		rs.UpdatedPerIter = append(rs.UpdatedPerIter, iterUpdated)
		if tr != nil {
			tr(rs.Iterations, computed, s.Core)
		}
		if update {
			vmin, vmax = uint32(nextMin), uint32(nextMax)
		}
	}
	return nil
}

// SemiCoreStar runs Algorithm 5: initialise core(v) <- deg(v) and mark
// every non-isolated node "not yet counted", so each is recomputed
// exactly once in the first pass, establishing real counters, then
// converge over the full node range. The paper writes the marker as
// cnt(v) <- 0; here it is -1, because the lookahead of
// localCoreBuf.localCore reads a neighbour's cnt as evidence and a
// marker must not pass for a count. A marker is only ever decremented
// before its node's first computation overwrites it, so it stays
// negative; isolated nodes get the real count 0.
func SemiCoreStar(g graph.Source, opts *Options) (*Result, error) {
	return semiCoreStar(g, opts, false)
}

func semiCoreStar(g graph.Source, opts *Options, paperRule bool) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	mem := opts.mem()
	st := NewState(n, mem)
	st.paperRule = paperRule
	defer mem.Free("semicore*/core")
	defer mem.Free("semicore*/cnt")
	err := g.ScanDegrees(func(v uint32, deg uint32) error {
		st.Core[v] = deg
		if deg > 0 {
			st.Cnt[v] = -1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Core: st.Core, Cnt: st.Cnt}
	res.Stats.Algorithm = "SemiCore*"
	if n > 0 {
		if err := st.Converge(g, 0, n-1, &res.Stats, opts.trace()); err != nil {
			return nil, err
		}
	}
	// A full decomposition dirties everything by definition; drop the
	// per-node list rather than hand callers an O(n) slice.
	res.Stats.Dirty = nil
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// StateFrom wraps existing core/cnt arrays (e.g. a finished SemiCoreStar
// result) as a State for maintenance.
func StateFrom(core []uint32, cnt []int32) (*State, error) {
	if len(core) != len(cnt) {
		return nil, fmt.Errorf("semicore: core/cnt length mismatch %d vs %d", len(core), len(cnt))
	}
	return &State{Core: core, Cnt: cnt}, nil
}
