package semicore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/memgraph"
	"kcore/internal/stats"
)

// ParallelOptions tunes the shared-memory fixpoint.
type ParallelOptions struct {
	// Workers is the goroutine count; non-positive selects GOMAXPROCS.
	Workers int
	// Mem receives the model allocations.
	Mem *stats.MemModel
}

// SemiCoreParallel runs the locality fixpoint concurrently — the
// shared-memory analogue of the distributed algorithm of Montresor, De
// Pellegrini and Miorandi [TPDS'13] that Theorem 4.1 comes from, included
// here as the natural multi-core extension of SemiCore. Workers sweep
// disjoint node shards, re-evaluating Eq. 1 against the live core array;
// estimates only ever decrease, so racy reads observe stale *upper
// bounds* and the chaotic iteration still converges to the unique
// fixpoint, which the final quiescent round certifies.
//
// It operates on an in-memory CSR: parallelism buys nothing when the
// edges stream from one disk, which is why the paper's disk algorithms
// are sequential.
func SemiCoreParallel(g *memgraph.CSR, opts *ParallelOptions) (*Result, error) {
	start := time.Now()
	var o ParallelOptions
	if opts != nil {
		o = *opts
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mem := o.Mem
	if mem == nil {
		mem = stats.NewMemModel()
	}
	n := g.NumNodes()
	core := make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		core[v] = g.Degree(v)
	}
	mem.Alloc("semicore-par/core", int64(n)*4)
	defer mem.Free("semicore-par/core")

	res := &Result{Core: core}
	res.Stats.Algorithm = fmt.Sprintf("SemiCore-par(%d)", workers)

	if n == 0 {
		res.Stats.Duration = time.Since(start)
		return res, nil
	}
	shard := (n + uint32(workers) - 1) / uint32(workers)
	for {
		var changed int64
		var comps int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := uint32(w) * shard
			if lo >= n {
				break
			}
			hi := lo + shard
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi uint32) {
				defer wg.Done()
				var buf localCoreBuf
				snapshot := make([]uint32, 0, 64)
				var local, localComps int64
				for v := lo; v < hi; v++ {
					nbrs := g.Neighbors(v)
					cold := atomic.LoadUint32(&core[v])
					if cold == 0 {
						continue
					}
					// Snapshot neighbour estimates with atomic loads;
					// stale values are still upper bounds.
					snapshot = snapshot[:0]
					for _, u := range nbrs {
						snapshot = append(snapshot, atomic.LoadUint32(&core[u]))
					}
					nc := buf.hindex(cold, snapshot)
					localComps++
					if nc != cold {
						atomic.StoreUint32(&core[v], nc)
						local++
					}
				}
				atomic.AddInt64(&changed, local)
				atomic.AddInt64(&comps, localComps)
			}(lo, hi)
		}
		wg.Wait()
		res.Stats.Iterations++
		res.Stats.NodeComputations += comps
		res.Stats.UpdatedPerIter = append(res.Stats.UpdatedPerIter, changed)
		if changed == 0 {
			break
		}
	}
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}
