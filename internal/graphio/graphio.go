// Package graphio converts between edge-list representations and the
// on-disk graph format. The central entry point, Build, takes any edge
// stream (in-memory slice, text file, binary file), symmetrises it,
// external-sorts the arcs under a bounded memory budget, deduplicates, and
// writes the node/edge tables — so web-scale inputs never need to fit in
// memory, matching the paper's construction pipeline.
package graphio

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"kcore/internal/extsort"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// EdgeSource streams undirected edges. Implementations may be re-iterable
// or one-shot; Build consumes the source exactly once.
type EdgeSource interface {
	// Edges invokes fn for every edge. Self-loops are tolerated and
	// dropped by Build.
	Edges(fn func(u, v uint32) error) error
}

// SliceSource adapts an in-memory edge slice.
type SliceSource []graph.Edge

// Edges implements EdgeSource.
func (s SliceSource) Edges(fn func(u, v uint32) error) error {
	for _, e := range s {
		if err := fn(e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

// CSRSource adapts an in-memory CSR graph.
type CSRSource struct{ G *memgraph.CSR }

// Edges implements EdgeSource.
func (s CSRSource) Edges(fn func(u, v uint32) error) error {
	return graph.Edges(s.G, func(e graph.Edge) error { return fn(e.U, e.V) })
}

// BuildOptions tunes graph construction.
type BuildOptions struct {
	// N forces the node count; 0 derives it as max id + 1.
	N uint32
	// SortBudgetArcs bounds the arcs' worth of memory the external sorter
	// holds: its buffer and its sort scratch are both inside the budget
	// (half each), so a run is SortBudgetArcs/2 arcs. 0 selects the sorter
	// default, 1<<20.
	SortBudgetArcs int
	// TempDir is where the sorter creates its private spill directory;
	// empty uses the target's directory. Build removes it on every path.
	TempDir string
	// IO receives block-level accounting for the build; nil allocates a
	// private counter.
	IO *stats.IOCounter
}

// Build writes the graph at path prefix base from src. Every edge is
// symmetrised into two arcs, external-sorted, deduplicated (parallel
// edges and self-loops dropped), and streamed into the storage builder.
// A graph whose ids already place neighbours near each other keeps id
// order (see idLocal) and is written in id order on that one stream.
// Any other graph is laid out in a peeling order, along which SemiCore*
// converges in one pass. The degrees are counted on the one pass over
// src, and the sort streams the lists by raw degree ascending, ties by
// id, into a scratch table in the sorter's directory: it orders arcs by
// their source's rank in that order, so no second sort is needed. On
// the way each node's estimate, its raw degree until its list arrives,
// becomes the h-index of its neighbours' estimates, capped at its
// list's length (one sweep of the paper's LocalCore, an upper bound on
// its core). The scratch is then opened once, through frames of the
// sort budget the merge has released: SemiCore* from the estimates
// gives the exact cores and counters, semicore.PeelOrder the order, and
// storage.CopyLists copies the lists into base in it, their records
// naming the ids unless that order is the id order. The order depends
// on the graph only, not on the budget. Whether it succeeds or fails,
// no spill file or scratch table outlives it, and builds sharing a
// directory do not see each other's.
func Build(base string, src EdgeSource, opts BuildOptions) error {
	ctr := opts.IO
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	dir := opts.TempDir
	if dir == "" {
		dir = filepath.Dir(base)
	}
	sorter := extsort.NewSorter(dir, opts.SortBudgetArcs, ctr)
	defer sorter.Close()
	n := opts.N
	deg := make([]uint32, n)  // raw degrees: the arcs added, duplicates too
	var edges, gapBits uint64 // the edges added and their id gaps' bits
	err := src.Edges(func(u, v uint32) error {
		if u == v {
			return nil
		}
		if top := max(u, v); top >= n {
			if opts.N != 0 {
				return fmt.Errorf("graphio: edge (%d,%d) endpoint exceeds forced node count %d", u, v, opts.N)
			}
			n = top + 1
			deg = slices.Grow(deg, int(n)-len(deg))[:n]
		}
		deg[u]++
		deg[v]++
		edges++
		gapBits += uint64(bits.Len32(max(u, v) - min(u, v)))
		if err := sorter.Add(extsort.Arc{U: u, V: v}); err != nil {
			return err
		}
		return sorter.Add(extsort.Arc{U: v, V: u})
	})
	if err != nil {
		return err
	}
	if idLocal(edges, gapBits, n) {
		return writeTables(base, sorter, idOrder(deg), nil, ctr)
	}
	order := sortByKey(deg)
	est := deg // each node's core estimate: its raw degree until its list passes
	spill, err := sorter.TempDir()
	if err != nil {
		return err
	}
	scratch := filepath.Join(spill, "stream")
	if err := writeTables(scratch, sorter, order, est, ctr); err != nil {
		return err
	}
	g, err := openScratch(scratch, sorter.BudgetBytes(), ctr)
	if err != nil {
		return err
	}
	defer g.Close()
	res, err := semicore.SemiCoreStarFrom(g, est, nil)
	if err != nil {
		return err
	}
	layout, err := semicore.PeelOrder(g, res.Core, res.Cnt)
	if err != nil {
		return err
	}
	return storage.CopyLists(base, g, layout)
}

// openScratch opens the scratch table at base through frames of the
// sort budget's bytes, which the merge has released: no more frames than
// its edge table has blocks.
func openScratch(base string, budgetBytes int, ctr *stats.IOCounter) (*storage.Graph, error) {
	m, err := storage.ReadMeta(base)
	if err != nil {
		return nil, err
	}
	bs := int64(ctr.BlockSize())
	frames := min(int64(max(1, budgetBytes/int(bs))), (m.EtBytes+bs-1)/bs)
	return storage.Open(base, ctr, storage.NewBlockCache(int(frames), int(bs)))
}

// writeTables streams the sorter's arcs into the tables at base, the
// lists in order (order[p] the node at position p), deduplicated. With
// est non-nil each node's estimate becomes, as its list passes, the
// h-index of its neighbours' estimates, at most its list's length.
func writeTables(base string, sorter *extsort.Sorter, order, est []uint32, ctr *stats.IOCounter) error {
	n := uint32(len(order))
	rank := make([]uint32, n)
	for p, v := range order {
		rank[v] = uint32(p)
	}
	b, err := storage.NewBuilder(base, n, ctr)
	if err != nil {
		return err
	}
	var (
		cur     int64 = -1 // the position whose list is being gathered
		nbrs    []uint32
		prevNbr int64 = -1
		lc      semicore.Buf
	)
	// upTo appends the list gathered at cur and empty ones up to p.
	upTo := func(p int64) error {
		if cur >= 0 {
			v := order[cur]
			if est != nil {
				est[v] = lc.LocalCore(min(est[v], uint32(len(nbrs))), nbrs, est, nil)
			}
			if err := b.AppendList(v, nbrs); err != nil {
				return err
			}
		}
		for next := cur + 1; next < p; next++ {
			if err := b.AppendList(order[next], nil); err != nil {
				return err
			}
		}
		return nil
	}
	err = sorter.Iterate(rank, func(a extsort.Arc) error {
		if int64(a.U) != cur {
			if err := upTo(int64(a.U)); err != nil {
				return err
			}
			cur = int64(a.U)
			nbrs = nbrs[:0]
			prevNbr = -1
		}
		if int64(a.V) == prevNbr {
			return nil // duplicate arc
		}
		prevNbr = int64(a.V)
		nbrs = append(nbrs, a.V)
		return nil
	})
	if err == nil {
		err = upTo(int64(n))
	}
	if err != nil {
		b.Abort()
		return err
	}
	return b.Close()
}

// idLocal reports whether a graph's ids already place neighbours near
// each other: whether the geometric mean of its edges' id gaps |u−v|,
// taken as their bit lengths, is below √n. A scan in id order then finds
// a node's neighbours in the blocks around it, which another order
// scatters. On a ring lattice with 10% of its edges rewired
// (gen.SmallWorld, 3,000 nodes, 1 KiB blocks, 16 frames), SemiCore* read
// about three times the blocks in degree order that it reads in id
// order; in a peeling order it takes one pass and reads about as much
// (66 blocks a seed, against 71, 66 and 66), but a round of 50 inserts
// reads 40% more (8,124 to 8,567 blocks, against 5,847 to 6,024), so
// the lattice keeps id order. Generated social, web and R-MAT graphs,
// also relabelled in BFS order, sit far above the bound (their mean gap
// has at least 0.6 of n's bits, the lattice 0.26).
func idLocal(edges, gapBits uint64, n uint32) bool {
	return 2*gapBits < edges*uint64(bits.Len32(n-1))
}

// idOrder is the identity layout, in deg's memory.
func idOrder(deg []uint32) []uint32 {
	for v := range deg {
		deg[v] = uint32(v)
	}
	return deg
}

// sortByKey orders the nodes by key ascending, ties by id, with one
// counting sort: the result's p-th entry is the node at position p. A
// key past n−1, which only a raw degree counting duplicate edges
// reaches, counts as n.
func sortByKey(key []uint32) []uint32 {
	n := len(key)
	start := make([]uint32, n+2)
	for _, k := range key {
		start[min(int(k), n)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	order := make([]uint32, n)
	for v, k := range key {
		k := min(int(k), n)
		order[start[k]] = uint32(v)
		start[k]++
	}
	return order
}

// ReadToCSR loads an on-disk graph fully into memory (test and example
// helper; defeats the semi-external model by design).
func ReadToCSR(base string) (*memgraph.CSR, error) {
	ctr := stats.NewIOCounter(0)
	g, err := storage.Open(base, ctr, nil)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return memgraph.FromSource(g)
}

// TextSource streams a whitespace-separated "u v" edge list from a file,
// skipping blank lines and lines starting with '#' or '%'.
type TextSource struct{ Path string }

// Edges implements EdgeSource.
func (t TextSource) Edges(fn func(u, v uint32) error) error {
	f, err := os.Open(t.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") || strings.HasPrefix(s, "%") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			return fmt.Errorf("graphio: %s:%d: want two fields, got %q", t.Path, line, s)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return fmt.Errorf("graphio: %s:%d: %w", t.Path, line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("graphio: %s:%d: %w", t.Path, line, err)
		}
		if err := fn(uint32(u), uint32(v)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// WriteText saves an edge list (one "u v" pair per line) for interchange.
func WriteText(path string, g *memgraph.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = graph.Edges(g, func(e graph.Edge) error {
		_, err := fmt.Fprintf(w, "%d %d\n", e.U, e.V)
		return err
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
