package semicore

import (
	"time"

	"kcore/internal/graph"
	"kcore/internal/localcore"
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
	var buf localcore.Buf
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
	var buf localcore.Buf
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
