package semicore

import (
	"slices"
	"time"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// Options tunes a decomposition run. The zero value is ready to use.
type Options struct {
	// Trace, when non-nil, is invoked after every iteration with the
	// recomputed node ids and the current core array (drives the Fig. 2/4/5
	// reproductions and cmd/experiments traces).
	Trace Trace
	// Mem, when non-nil, receives the algorithm's model allocations so
	// experiments can report deterministic memory footprints.
	Mem *stats.MemModel
}

func (o *Options) trace() Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}

func (o *Options) mem() *stats.MemModel {
	if o == nil || o.Mem == nil {
		return stats.NewMemModel()
	}
	return o.Mem
}

// Result carries the output of a decomposition.
type Result struct {
	// Core holds the converged core numbers.
	Core []uint32
	// Cnt holds SemiCore*'s support counters (Eq. 2) when the algorithm
	// maintains them, nil otherwise. A maintenance session (Algorithms
	// 6-8) continues from Core+Cnt.
	Cnt []int32
	// Stats records iterations, node computations, per-iteration update
	// counts, and timing. I/O is filled in by callers that own the
	// storage counter.
	Stats stats.RunStats
}

// initUpperBounds loads core(v) <- deg(v) for every node (Algorithm 3
// line 1), the arbitrary-upper-bound initialisation all three variants
// share.
func initUpperBounds(g graph.Source) ([]uint32, error) {
	core := make([]uint32, g.NumNodes())
	err := g.ScanDegrees(func(v uint32, deg uint32) error {
		core[v] = deg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core, nil
}

// SemiCore runs Algorithm 3: iterate full sequential scans, recomputing
// every node's core estimate with LocalCore until an entire pass changes
// nothing.
func SemiCore(g graph.Source, opts *Options) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	mem := opts.mem()
	core, err := initUpperBounds(g)
	if err != nil {
		return nil, err
	}
	mem.Alloc("semicore/core", int64(n)*4)
	defer mem.Free("semicore/core")

	res := &Result{Core: core}
	res.Stats.Algorithm = "SemiCore"
	var buf Buf
	var computed []uint32
	tr := opts.trace()

	for update := true; update; {
		update = false
		var iterUpdated int64
		computed = computed[:0]
		err := graph.ScanAll(g, func(v uint32, nbrs []uint32) error {
			cold := core[v]
			nc := buf.LocalCore(cold, nbrs, core, nil)
			res.Stats.NodeComputations++
			if tr != nil {
				computed = append(computed, v)
			}
			if nc != cold {
				core[v] = nc
				iterUpdated++
				update = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		res.Stats.UpdatedPerIter = append(res.Stats.UpdatedPerIter, iterUpdated)
		if tr != nil {
			tr(res.Stats.Iterations, computed, core)
		}
	}
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// SemiCorePlus runs Algorithm 4: like SemiCore, but a node is recomputed
// only while its active flag is set, and each iteration scans only the
// window of nodes that might change (Passes). A core-number update
// reactivates and marks all neighbours.
func SemiCorePlus(g graph.Source, opts *Options) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	mem := opts.mem()
	core, err := initUpperBounds(g)
	if err != nil {
		return nil, err
	}
	mem.Alloc("semicore+/core", int64(n)*4)
	mem.Alloc("semicore+/active", int64(n))
	defer mem.Free("semicore+/core")
	defer mem.Free("semicore+/active")

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	res := &Result{Core: core}
	res.Stats.Algorithm = "SemiCore+"
	var buf Buf
	p := Passes{Stats: &res.Stats, Trace: opts.trace(), Core: core}
	if n > 0 {
		err := p.Run(g, 0, n-1,
			func(v uint32) bool { return active[v] },
			func(v uint32, nbrs []uint32) error {
				active[v] = false
				cold := core[v]
				core[v] = buf.LocalCore(cold, nbrs, core, nil)
				p.Computed(v, core[v] != cold)
				if core[v] != cold {
					for _, u := range nbrs {
						active[u] = true
						p.Mark(u)
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
	}
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// Buf evaluates LocalCore: given node v's current estimate cold and upper bounds on
// its neighbours' core numbers, it returns the largest k with
// |{u in nbr(v): bound(u) >= k}| >= k, i.e. one application of the
// locality equation (Eq. 1). The num histogram is retained between calls
// and grows geometrically, so each evaluation is O(deg(v) + cold) with
// zero allocation in steady state; cold <= deg(v) + 1 wherever it is
// called (see LocalCore).
type Buf struct {
	num []uint32 // all zero between calls, to its capacity
}

// LocalCore folds v's neighbour bounds, clamped to cold, into the h-index
// histogram and applies the locality equation. With cnt == nil the bound
// is the stored estimate core(u), the paper's rule (SemiCore, SemiCore+).
// With counters it is the violation lookahead
//
//	eff(u) = core(u) - [0 <= cnt(u) < core(u)]:
//
// an exact cnt(u) below core(u) proves core(u) cannot be u's core number
// (fewer than core(u) neighbours can support that level), so core(u)-1 is
// an upper bound that costs no I/O. A negative cnt(u) is SemiCoreStar's
// "not yet counted" marker, not a count, and earns no discount. See
// docs/ARCHITECTURE.md, "Deviations from the paper".
//
// The histogram is cleared whole, num[:cold+1], which is O(deg(v)):
// decompositions start from cold = deg(v) and only lower it, and in
// maintenance an estimate exceeds the degree by at most one (a delete
// lowers the degree under an exact core number; SemiInsert's flood raises
// an exact one by one).
func (b *Buf) LocalCore(cold uint32, nbrs []uint32, core []uint32, cnt []int32) uint32 {
	if cold == 0 {
		return 0
	}
	if len(b.num) < int(cold)+1 {
		b.num = slices.Grow(b.num, int(cold)+1-len(b.num))
		b.num = b.num[:cap(b.num)]
	}
	num := b.num[:cold+1]
	if cnt == nil {
		for _, u := range nbrs {
			num[min(core[u], cold)]++
		}
	} else {
		for _, u := range nbrs {
			c := core[u]
			if k := cnt[u]; k >= 0 && uint32(k) < c {
				c--
			}
			num[min(c, cold)]++
		}
	}
	s := uint32(0)
	k := cold
	for ; k >= 1; k-- {
		s += num[k]
		if s >= k {
			break
		}
	}
	clear(num)
	return k
}
