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
	buf  Buf
	viol []uint32 // scratch: the violated neighbours recompute returns
	// paperRule makes recompute read neighbours' stored estimates only
	// (Algorithm 5 as printed). Nothing outside the tests sets it: they
	// measure the lookahead against it.
	paperRule bool
}

// newState allocates zeroed state for n nodes, registering the 8n model
// bytes with mem (which may be nil).
func newState(n uint32, mem *stats.MemModel) *State {
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
// lookahead bounds (Buf.LocalCore), then in a single walk set
// cnt(v) per Eq. 2 against the stored estimates, take v out of the
// support set of every neighbour u with cnew < core(u) <= cold
// (UpdateNbrCnt, lines 21-24), and collect the counted neighbours left
// with cnt(u) < core(u). It reports whether core(v) changed and those
// violated neighbours; the slice is scratch, valid until the next call.
// An uncounted neighbour (cnt -1) is not reported: one exists only ahead
// of the cursor in SemiCoreStar's first pass, whose window is already
// [0, n-1].
//
// Invariants kept: estimates stay upper bounds, every non-negative cnt
// stays exact with respect to the stored estimates, and
// cnt(v) >= core(v) on return (at least core(v) neighbours have
// eff >= core(v), and core >= eff).
func (s *State) recompute(v uint32, nbrs []uint32) (bool, []uint32) {
	core, cnt := s.Core, s.Cnt
	cold := core[v]
	look := cnt
	if s.paperRule {
		look = nil
	}
	nc := s.buf.LocalCore(cold, nbrs, core, look)
	core[v] = nc
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
		if k := cnt[u]; k >= 0 && k < int32(cu) {
			viol = append(viol, u)
		}
	}
	cnt[v] = support
	s.viol = viol
	return nc != cold, viol
}

// Converge runs Algorithm 5 lines 4-14: starting from the window of
// positions [pmin, pmax] (graph.Source.Positions), repeatedly scan nodes whose
// cnt(v) < core(v) (the exact recomputation condition of Lemma 4.2),
// recompute their core and cnt, propagate cnt decrements to neighbours,
// and mark the violated ones on the pass engine (Passes) until a pass
// marks nothing behind its cursor.
// It is shared verbatim by SemiCoreStar, SemiDelete* and SemiInsert's
// phase 2.
//
// rs accumulates iterations, node computations and per-iteration update
// counts; tr may be nil.
func (s *State) Converge(g graph.Source, pmin, pmax uint32, rs *stats.RunStats, tr Trace) error {
	return s.converge(g, nil, true, pmin, pmax, rs, tr)
}

// residentSource is a graph that can say, without reading, whether a
// node's list would come from memory, and read that one list:
// storage.Graph and dyngraph.Graph, whose block cache answers.
type residentSource interface {
	Resident(v uint32) bool
	Neighbors(v uint32, buf []uint32) ([]uint32, error)
}

// revisits is SemiCoreStar's cache-resident revisit state: a violated
// node at or behind the scan cursor is recomputed at once, not deferred
// to the next pass, when its list is resident and it has not been
// revisited or checked in this pass. Only the cursor loads blocks, so a
// list behind it that was not resident when checked cannot become
// resident again in the same pass: one bit per node (seen) loses nothing.
// Cascades go through stack. See docs/ARCHITECTURE.md, "Cache-resident
// revisits".
type revisits struct {
	g     residentSource
	seen  []uint64 // n bits: revisited or checked in pass
	pass  int
	stack []uint32
	nbrs  []uint32
}

// take reports whether violated node u, at or behind the cursor, is
// recomputed now in the given pass, pushing it if so; a false answer
// leaves u to the next pass. seen is cleared once per pass, at the pass's first take.
func (r *revisits) take(u uint32, pass int) bool {
	if r == nil {
		return false
	}
	if r.pass != pass {
		clear(r.seen)
		r.pass = pass
	}
	w, bit := u/64, uint64(1)<<(u%64)
	if r.seen[w]&bit != 0 {
		return false
	}
	r.seen[w] |= bit
	if !r.g.Resident(u) {
		return false
	}
	r.stack = append(r.stack, u)
	return true
}

// converge is Converge, with cache-resident revisits when rv is non-nil,
// listing the changed nodes in rs.Dirty only when dirty is set: a full
// decomposition dirties every node by definition, and a list of them
// would cost it O(n) for nothing.
func (s *State) converge(g graph.Source, rv *revisits, dirty bool, pmin, pmax uint32, rs *stats.RunStats, tr Trace) error {
	p := Passes{Stats: rs, Trace: tr, Core: s.Core}
	// step recomputes v and routes the neighbours it leaves violated:
	// ahead of the cursor they extend the pass; at or behind it they are
	// revisited now or marked for the next pass.
	step := func(v uint32, nbrs []uint32) {
		changed, violated := s.recompute(v, nbrs)
		p.Computed(v, changed)
		if changed && dirty {
			rs.Dirty = append(rs.Dirty, v)
		}
		for _, u := range violated {
			if pu := p.at(u); pu > p.cursor || !rv.take(u, p.Pass()) {
				p.markAt(pu)
			}
		}
	}
	return p.Run(g, pmin, pmax,
		func(v uint32) bool { return s.Cnt[v] < int32(s.Core[v]) },
		func(v uint32, nbrs []uint32) error {
			step(v, nbrs)
			for rv != nil && len(rv.stack) > 0 {
				u := rv.stack[len(rv.stack)-1]
				rv.stack = rv.stack[:len(rv.stack)-1]
				l, err := rv.g.Neighbors(u, rv.nbrs)
				if err != nil {
					return err
				}
				rv.nbrs = l[:0]
				step(u, l)
			}
			return nil
		})
}

// SemiCoreStar runs Algorithm 5: initialise core(v) <- deg(v) and mark
// every non-isolated node "not yet counted", so each is recomputed
// exactly once in the first pass, establishing real counters, then
// converge over the full node range. The paper writes the marker as
// cnt(v) <- 0; here it is -1, because the lookahead of
// Buf.LocalCore reads a neighbour's cnt as evidence and a
// marker must not pass for a count. A marker is only ever decremented
// before its node's first computation overwrites it, so it stays
// negative; isolated nodes get the real count 0.
//
// On a graph that answers Resident (storage.Graph, dyngraph.Graph: every
// disk graph, whatever its frame count) it keeps one bit per node (n/8
// more model bytes), and a violated node behind the cursor whose list is
// cached is recomputed at once instead of in the next pass (revisits).
// The in-memory CSR keeps the printed pass schedule, and maintenance
// (Converge) keeps it everywhere.
func SemiCoreStar(g graph.Source, opts *Options) (*Result, error) {
	return semiCoreStar(g, opts, false, nil)
}

// SemiCoreStarFrom runs SemiCore* from core(v) <- min(deg(v), bound[v])
// instead of the degrees. From any per-node upper bound on the cores it
// converges to them (the locality property Algorithm 5 rests on), and
// from the exact cores in one pass, which counts every list once and
// finds no violated node. A bound below some node's core is not
// detected: the result is then not the graph's cores. bound is only
// read.
func SemiCoreStarFrom(g graph.Source, bound []uint32, opts *Options) (*Result, error) {
	if len(bound) != int(g.NumNodes()) {
		return nil, fmt.Errorf("semicore: bound covers %d nodes, graph has %d", len(bound), g.NumNodes())
	}
	return semiCoreStar(g, opts, false, bound)
}

// semiCoreStar is SemiCoreStar, starting below the degrees where bound
// (nil: none) says so.
func semiCoreStar(g graph.Source, opts *Options, paperRule bool, bound []uint32) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	mem := opts.mem()
	st := newState(n, mem)
	st.paperRule = paperRule
	defer mem.Free("semicore*/core")
	defer mem.Free("semicore*/cnt")
	err := g.ScanDegrees(func(v uint32, deg uint32) error {
		st.Core[v] = deg
		if bound != nil {
			st.Core[v] = min(deg, bound[v])
		}
		if deg > 0 {
			st.Cnt[v] = -1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rv *revisits
	if rg, ok := g.(residentSource); ok {
		rv = &revisits{g: rg, seen: make([]uint64, (n+63)/64)}
		mem.Alloc("semicore*/seen", (int64(n)+7)/8)
		defer mem.Free("semicore*/seen")
	}
	res := &Result{Core: st.Core, Cnt: st.Cnt}
	res.Stats.Algorithm = "SemiCore*"
	if n > 0 {
		if err := st.converge(g, rv, false, 0, n-1, &res.Stats, opts.trace()); err != nil {
			return nil, err
		}
	}
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}
