package imcore

import (
	"fmt"
	"time"
)

// Maintainer keeps core numbers of a DynGraph current across edge
// insertions and deletions, using the traversal approach of the in-memory
// streaming algorithms ([27], [19]) the paper cites: Theorems 3.1 and 3.2
// restrict the nodes whose core number can change to the pure-core
// subgraph reachable from the lower endpoint, inside which a local
// eviction (insert) or cascade (delete) settles the +-1 adjustment.
type Maintainer struct {
	G    *DynGraph
	Core []uint32
}

// NewMaintainer wraps a graph with freshly computed core numbers.
func NewMaintainer(g *DynGraph) *Maintainer {
	res := Decompose(g.CSR(), nil)
	return &Maintainer{G: g, Core: res.Core}
}

// MaintStats reports the work one maintenance operation performed.
type MaintStats struct {
	// Visited counts nodes whose neighbourhood was examined.
	Visited int64
	// Changed counts nodes whose core number changed.
	Changed int64
	// Duration is wall-clock time for the operation.
	Duration time.Duration
}

// Insert adds edge {u,v} and restores all core numbers (IMInsert). The
// repair touches only the affected region around the new edge (the
// pure-core subgraph reachable from the lower endpoint), never the whole
// graph — the paper's locality property, preserved.
func (m *Maintainer) Insert(u, v uint32) (MaintStats, error) {
	start := time.Now()
	var st MaintStats
	if err := m.G.Insert(u, v); err != nil {
		return st, err
	}
	root := u
	if m.Core[v] < m.Core[u] {
		root = v
	}
	k := m.Core[root]

	// Candidate set Vc: nodes with core == K reachable from root through
	// core == K paths (Theorem 3.2). The new edge is already in place.
	inVc := map[uint32]bool{root: true}
	order := []uint32{root}
	for head := 0; head < len(order); head++ {
		w := order[head]
		st.Visited++
		for _, x := range m.G.Neighbors(w) {
			if m.Core[x] == k && !inVc[x] {
				inVc[x] = true
				order = append(order, x)
			}
		}
	}
	// Support within the tentative k+1 world: neighbours with core > k or
	// fellow candidates.
	support := make(map[uint32]int32, len(order))
	for _, w := range order {
		var s int32
		for _, x := range m.G.Neighbors(w) {
			if m.Core[x] > k || inVc[x] {
				s++
			}
		}
		support[w] = s
	}
	// Evict candidates that cannot reach k+1; each eviction weakens its
	// candidate neighbours.
	evicted := make(map[uint32]bool, len(order))
	queue := make([]uint32, 0, len(order))
	for _, w := range order {
		if support[w] < int32(k)+1 {
			queue = append(queue, w)
			evicted[w] = true
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, x := range m.G.Neighbors(w) {
			if inVc[x] && !evicted[x] {
				support[x]--
				if support[x] < int32(k)+1 {
					evicted[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	for _, w := range order {
		if !evicted[w] {
			m.Core[w] = k + 1
			st.Changed++
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// Delete removes edge {u,v} and restores all core numbers (IMDelete).
func (m *Maintainer) Delete(u, v uint32) (MaintStats, error) {
	start := time.Now()
	var st MaintStats
	if err := m.G.Delete(u, v); err != nil {
		return st, err
	}
	k := m.Core[u]
	if m.Core[v] < k {
		k = m.Core[v]
	}
	// Lazy support counters: cd(w) = |{x in nbr(w) : core(x) >= k}|,
	// computed from the live core array on first touch so cascaded drops
	// are never double counted.
	cd := map[uint32]int32{}
	cdOf := func(w uint32) int32 {
		if s, ok := cd[w]; ok {
			return s
		}
		var s int32
		for _, x := range m.G.Neighbors(w) {
			if m.Core[x] >= k {
				s++
			}
		}
		cd[w] = s
		st.Visited++
		return s
	}
	dropped := map[uint32]bool{}
	var queue []uint32
	for _, w := range []uint32{u, v} {
		if m.Core[w] == k && !dropped[w] && cdOf(w) < int32(k) {
			dropped[w] = true
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m.Core[w] = k - 1
		st.Changed++
		for _, x := range m.G.Neighbors(w) {
			if m.Core[x] == k && !dropped[x] {
				// First touch computes cd against the already-updated
				// core array (w no longer counted); later touches
				// decrement.
				if _, seen := cd[x]; !seen {
					cdOf(x)
				} else {
					cd[x]--
				}
				if cd[x] < int32(k) {
					dropped[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// Check validates the maintained cores against a fresh decomposition,
// for tests and debugging.
func (m *Maintainer) Check() error {
	want := Decompose(m.G.CSR(), nil).Core
	for v := range want {
		if m.Core[v] != want[v] {
			return fmt.Errorf("imcore: maintained core(%d) = %d, want %d", v, m.Core[v], want[v])
		}
	}
	return nil
}
