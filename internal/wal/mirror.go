package wal

import (
	"slices"
	"sort"

	"kcore/internal/memgraph"
	"kcore/internal/stats"
)

// Mirror is the durability layer's own resident copy of a mem graph's
// adjacency, patched from the same applied-batch feed that produces WAL
// records. Its checkpoints are written from a Clone of the mirror, so
// they never touch the serving graph's files and always describe exactly
// the state as of a known LSN. Disk-backed graphs keep no mirror: their
// checkpoint Source streams the partition store.
//
// Lists are kept sorted ascending (the storage format's invariant), so
// a checkpoint is a straight sweep. Mirror is not internally locked:
// the owner serializes patches and clones under its commit-point mutex.
type Mirror struct {
	adj   [][]uint32
	edges int64
}

// NewMirror returns an empty mirror over n nodes.
func NewMirror(n uint32) *Mirror {
	return &Mirror{adj: make([][]uint32, n)}
}

// NumNodes reports the node-range size.
func (m *Mirror) NumNodes() uint32 { return uint32(len(m.adj)) }

// NumEdges reports the number of undirected edges.
func (m *Mirror) NumEdges() int64 { return m.edges }

// NumArcs reports stored arcs (2x edges).
func (m *Mirror) NumArcs() int64 { return 2 * m.edges }

// Seed inserts edge {u,v} during initial population, without the sorted
// maintenance cost; callers must Finish before the first Scan or Apply. Self-loops and out-of-range ids are ignored, matching the
// serving graph's validation.
func (m *Mirror) Seed(u, v uint32) {
	if u == v || u >= m.NumNodes() || v >= m.NumNodes() {
		return
	}
	m.adj[u] = append(m.adj[u], v)
	m.adj[v] = append(m.adj[v], u)
	m.edges++
}

// Finish sorts every list after seeding.
func (m *Mirror) Finish() {
	for _, list := range m.adj {
		slices.Sort(list)
	}
}

// Scan implements Source: a straight sweep of the resident lists (aliased
// — fn must not mutate or retain them), no I/O.
func (m *Mirror) Scan(_ *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	for v, list := range m.adj {
		if err := fn(uint32(v), list); err != nil {
			return err
		}
	}
	return nil
}

// Apply patches the mirror with one applied batch: deletes first, then
// inserts, matching the writer's apply order. The feed carries only
// updates the writer actually applied, so a missing delete target or a
// duplicate insert indicates divergence; Apply tolerates them (no-op)
// to keep durability non-fatal, and the checkpoint checksum machinery
// catches real divergence at the next recovery.
func (m *Mirror) Apply(deletes, inserts []memgraph.Edge) {
	for _, e := range deletes {
		if m.removeArc(e.U, e.V) && m.removeArc(e.V, e.U) {
			m.edges--
		}
	}
	for _, e := range inserts {
		if e.U == e.V || e.U >= m.NumNodes() || e.V >= m.NumNodes() {
			continue
		}
		a := m.insertArc(e.U, e.V)
		b := m.insertArc(e.V, e.U)
		if a && b {
			m.edges++
		}
	}
}

func (m *Mirror) insertArc(u, v uint32) bool {
	list := m.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i < len(list) && list[i] == v {
		return false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	m.adj[u] = list
	return true
}

func (m *Mirror) removeArc(u, v uint32) bool {
	if u >= m.NumNodes() {
		return false
	}
	list := m.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i == len(list) || list[i] != v {
		return false
	}
	m.adj[u] = append(list[:i], list[i+1:]...)
	return true
}

// Clone deep-copies the mirror; the copy is what a checkpoint writes
// while the original keeps taking patches.
func (m *Mirror) Clone() *Mirror {
	c := &Mirror{adj: make([][]uint32, len(m.adj)), edges: m.edges}
	for v, list := range m.adj {
		if len(list) > 0 {
			c.adj[v] = append([]uint32(nil), list...)
		}
	}
	return c
}
