package kcore

import (
	"fmt"
	"sort"
)

// KCoreNodes returns the nodes of the k-core: by Lemma 2.1 the k-core is
// the subgraph induced by {v : core(v) >= k}, so given a decomposition the
// k-cores for every k fall out by filtering.
func KCoreNodes(core []uint32, k uint32) []uint32 {
	var out []uint32
	for v, c := range core {
		if c >= k {
			out = append(out, uint32(v))
		}
	}
	return out
}

// Degeneracy reports the maximum core number in a decomposition (the
// graph's degeneracy, kmax in the paper).
func Degeneracy(core []uint32) uint32 {
	var k uint32
	for _, c := range core {
		if c > k {
			k = c
		}
	}
	return k
}

// CoreHistogram returns counts[k] = number of nodes with core number k,
// for k in [0, Degeneracy].
func CoreHistogram(core []uint32) []int64 {
	counts := make([]int64, Degeneracy(core)+1)
	for _, c := range core {
		counts[c]++
	}
	return counts
}

// CoreSizes returns sizes[k] = |k-core| (number of nodes with core >= k),
// the cumulative view of CoreHistogram.
func CoreSizes(core []uint32) []int64 {
	h := CoreHistogram(core)
	sizes := make([]int64, len(h))
	var cum int64
	for k := len(h) - 1; k >= 0; k-- {
		cum += h[k]
		sizes[k] = cum
	}
	return sizes
}

// DegeneracyOrder returns the nodes sorted by core number ascending (ties
// by id). Processing nodes in this order guarantees each node has at most
// Degeneracy(core) neighbours later in the order — the standard use of
// core decomposition as a preprocessing step for clique finding and dense
// subgraph discovery.
func DegeneracyOrder(core []uint32) []uint32 {
	order := make([]uint32, len(core))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if core[order[i]] != core[order[j]] {
			return core[order[i]] < core[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// NumNodes reports the number of nodes the snapshot covers.
func (s *CoreSnapshot) NumNodes() uint32 { return s.n }

// CoreOf reports the core number of v at snapshot time.
func (s *CoreSnapshot) CoreOf(v uint32) (uint32, error) {
	if v >= s.n {
		return 0, fmt.Errorf("kcore: node %d out of range [0,%d)", v, s.n)
	}
	return s.CoreAt(v), nil
}

// CoreAt reports the core number of v at snapshot time without a bounds
// check: one chunk-table indirection. v must be < NumNodes().
func (s *CoreSnapshot) CoreAt(v uint32) uint32 {
	return s.chunks[v>>SnapshotChunkShift][v&snapshotChunkMask]
}

// ForEachCore calls fn(v, core(v)) for every node in id order, walking
// the chunks directly — the cheapest full read of a snapshot.
func (s *CoreSnapshot) ForEachCore(fn func(v, c uint32)) {
	v := uint32(0)
	for _, ch := range s.chunks {
		for _, c := range ch {
			fn(v, c)
			v++
		}
	}
}

// Cores materialises the full core array as a freshly allocated copy (an
// O(n) flattening of the shared chunks). Use CoreAt/ForEachCore to read
// without allocating.
func (s *CoreSnapshot) Cores() []uint32 {
	out := make([]uint32, 0, s.n)
	for _, ch := range s.chunks {
		out = append(out, ch...)
	}
	return out
}

// NumChunks reports how many chunks the snapshot stores — the total a
// delta publication's copied-chunk count is measured against.
func (s *CoreSnapshot) NumChunks() int { return len(s.chunks) }

// Dirty returns the nodes whose core number differs from the snapshot
// this one was derived from by Maintainer.SnapshotDelta — the exact
// delta, each node once. It is nil for a snapshot taken from scratch.
// The slice is shared with the snapshot and must not be mutated.
func (s *CoreSnapshot) Dirty() []uint32 { return s.dirty }

// KCore returns the nodes of the k-core at snapshot time, in id order.
func (s *CoreSnapshot) KCore(k uint32) []uint32 {
	var out []uint32
	s.ForEachCore(func(v, c uint32) {
		if c >= k {
			out = append(out, v)
		}
	})
	return out
}

// KCoreTop returns the size of the k-core at snapshot time and its first
// limit members (all of them when limit <= 0) in core number descending
// order, ids ascending within one core number — a prefix is the most
// deeply embedded part of the k-core, and the order depends on the core
// numbers alone.
//
// The count and the lowest core number t the answer reaches come from
// the histogram (O(Kmax)); one scan in id order then drops each node of
// core >= t at its level's cursor — levels above t whole, t up to the
// limit — and stops once the answer is full. It allocates the answer and
// one cursor per level in [t, Kmax], and no O(n) state.
func (s *CoreSnapshot) KCoreTop(k uint32, limit int) (nodes []uint32, count int) {
	top := len(s.hist) - 1
	// Compare in uint64: int(k) would wrap negative on 32-bit platforms
	// for k > MaxInt32 and sneak past the guard.
	if uint64(k) > uint64(top) {
		return nil, 0
	}
	for c := top; c >= int(k); c-- {
		count += int(s.hist[c])
	}
	want := count
	if limit > 0 && limit < count {
		want = limit
	}
	if want == 0 {
		return nil, count
	}
	t, above := top, 0
	for above+int(s.hist[t]) < want {
		above += int(s.hist[t])
		t--
	}
	// next[c-t] is the write cursor of core number c: level top starts
	// at 0, each level right after the one above it.
	next := make([]int, top-t+1)
	for c := top - 1; c >= t; c-- {
		next[c-t] = next[c-t+1] + int(s.hist[c+1])
	}
	nodes = make([]uint32, want)
	placed := 0
	for ci, ch := range s.chunks {
		for i, c := range ch {
			if int(c) < t {
				continue
			}
			if p := next[int(c)-t]; p < want {
				nodes[p] = uint32(ci<<SnapshotChunkShift + i)
				next[int(c)-t]++
				if placed++; placed == want {
					return nodes, count
				}
			}
		}
	}
	return nodes, count
}

// Degeneracy reports kmax at snapshot time.
func (s *CoreSnapshot) Degeneracy() uint32 { return s.Kmax }

// Histogram returns counts[k] = number of nodes with core number k. The
// histogram is maintained incrementally across delta snapshots, so this
// is an O(Kmax) copy, not an O(n) scan.
func (s *CoreSnapshot) Histogram() []int64 { return append([]int64(nil), s.hist...) }

// Sizes returns sizes[k] = |k-core| at snapshot time (the cumulative view
// of Histogram, likewise O(Kmax)).
func (s *CoreSnapshot) Sizes() []int64 {
	sizes := make([]int64, len(s.hist))
	var cum int64
	for k := len(s.hist) - 1; k >= 0; k-- {
		cum += s.hist[k]
		sizes[k] = cum
	}
	return sizes
}

// KCoreSubgraph extracts the edges of the k-core via one sequential scan
// of the graph.
func (g *Graph) KCoreSubgraph(core []uint32, k uint32) ([]Edge, error) {
	if uint32(len(core)) != g.NumNodes() {
		return nil, fmt.Errorf("kcore: core array covers %d nodes, graph has %d", len(core), g.NumNodes())
	}
	var edges []Edge
	err := g.VisitEdges(func(u, v uint32) error {
		if core[u] >= k && core[v] >= k {
			edges = append(edges, Edge{U: u, V: v})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return edges, nil
}

// DensestCore returns the k whose k-core has the highest edge density
// |E|/|V| among all non-empty k-cores, with the density; a standard
// approximation routine for densest-subgraph discovery built on the
// decomposition. It costs one sequential edge scan.
func (g *Graph) DensestCore(core []uint32) (k uint32, density float64, err error) {
	if uint32(len(core)) != g.NumNodes() {
		return 0, 0, fmt.Errorf("kcore: core array covers %d nodes, graph has %d", len(core), g.NumNodes())
	}
	kmax := Degeneracy(core)
	edgesAt := make([]int64, kmax+1) // edges whose min endpoint core = k
	err = g.VisitEdges(func(u, v uint32) error {
		c := core[u]
		if core[v] < c {
			c = core[v]
		}
		edgesAt[c]++
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	sizes := CoreSizes(core)
	var cumEdges int64
	best, bestDensity := uint32(0), -1.0
	for kk := int64(kmax); kk >= 0; kk-- {
		cumEdges += edgesAt[kk]
		if sizes[kk] == 0 {
			continue
		}
		d := float64(cumEdges) / float64(sizes[kk])
		if d > bestDensity {
			best, bestDensity = uint32(kk), d
		}
	}
	return best, bestDensity, nil
}
