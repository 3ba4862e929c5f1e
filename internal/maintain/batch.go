package maintain

import (
	"time"

	"kcore/internal/graph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
)

// BatchDelete removes a set of edges and repairs core/cnt with a single
// converge pass. This extends Algorithm 6 to batches: deletions only
// lower core numbers (Theorem 3.1 applied edge by edge), so the old core
// values remain upper bounds after applying the whole batch; adjusting
// every endpoint counter first and converging once over the combined
// window does the work of |batch| SemiDelete* calls while scanning the
// affected region once instead of |batch| times.
//
// Edges are validated up front; on error the graph is left unchanged.
func (s *Session) BatchDelete(edges []graph.Edge) (stats.RunStats, error) {
	start := time.Now()
	rs := stats.RunStats{Algorithm: "SemiDeleteBatch*"}
	if len(edges) == 0 {
		rs.Duration = time.Since(start)
		return rs, nil
	}
	// Validate first so the batch is atomic: duplicates inside the batch
	// surface as "not present" on the second occurrence.
	for i, e := range edges {
		if err := s.G.DeleteEdge(e.U, e.V); err != nil {
			// Roll back the prefix.
			for j := 0; j < i; j++ {
				s.G.InsertEdge(edges[j].U, edges[j].V) //nolint:errcheck // restoring known-good edges
			}
			return rs, err
		}
	}
	core, cnt := s.St.Core, s.St.Cnt
	touched := make([]uint32, 0, 2*len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		switch {
		case core[u] < core[v]:
			cnt[u]--
			touched = append(touched, u)
		case core[v] < core[u]:
			cnt[v]--
			touched = append(touched, v)
		default:
			cnt[u]--
			cnt[v]--
			touched = append(touched, u, v)
		}
	}
	pmin, pmax := semicore.Window(s.G, touched)
	if err := s.St.Converge(s.G, pmin, pmax, &rs, s.Trace); err != nil {
		return rs, err
	}
	rs.Duration = time.Since(start)
	return rs, nil
}

// BatchInsert adds a set of edges, applying SemiInsert* per edge — or,
// with twoPhase, SemiInsert (Algorithm 7). Insertion raises core
// numbers, so the old ones are no upper bounds after a batch; but one
// inserted edge raises any core number by at most 1, so after I inserts
// min(deg'(v), core(v) + I) is one, and SemiCore* converges from it
// (semicore.SemiCoreStarFrom; TestInsertBoundConverges checks both).
// This helper does not take that single pass: it amortises only the
// shared buffer and scan machinery. Edges are validated as they are
// applied; on error the already-inserted prefix remains applied and
// consistent, and the returned stats are that prefix's work.
func (s *Session) BatchInsert(edges []graph.Edge, twoPhase bool) (stats.RunStats, error) {
	start := time.Now()
	insert, total := s.InsertStar, stats.RunStats{Algorithm: "SemiInsertBatch*"}
	if twoPhase {
		insert, total.Algorithm = s.InsertTwoPhase, "SemiInsertBatch"
	}
	for _, e := range edges {
		rs, err := insert(e.U, e.V)
		total.Iterations += rs.Iterations
		total.NodeComputations += rs.NodeComputations
		total.UpdatedPerIter = append(total.UpdatedPerIter, rs.UpdatedPerIter...)
		total.Dirty = append(total.Dirty, rs.Dirty...)
		if err != nil {
			total.Duration = time.Since(start)
			return total, err
		}
	}
	total.Duration = time.Since(start)
	return total, nil
}
