package kcore

import (
	"fmt"

	"kcore/internal/maintain"
	"kcore/internal/semicore"
	"kcore/internal/stats"
)

// InsertAlgorithm selects a maintenance strategy for edge insertion.
type InsertAlgorithm int

const (
	// SemiInsertStar is Algorithm 8 (the default): one-phase insertion
	// with node statuses and the speculative cnt* counter.
	SemiInsertStar InsertAlgorithm = iota
	// SemiInsertTwoPhase is Algorithm 7: flood the pure-core candidate
	// set, raise it wholesale, then re-converge.
	SemiInsertTwoPhase
)

// String names the variant as in the paper.
func (a InsertAlgorithm) String() string {
	if a == SemiInsertTwoPhase {
		return "SemiInsert"
	}
	return "SemiInsert*"
}

// MaintainerOptions tunes a maintenance session.
type MaintainerOptions struct {
	// Insert selects the insertion algorithm (default SemiInsertStar).
	Insert InsertAlgorithm
	// FromResult starts the session from an existing decomposition of
	// this graph instead of one from the degrees. A SemiCore* Result from
	// Decompose is taken as it is, counters and all. Any other Result —
	// another algorithm's, or LoadResult's — seeds SemiCore* with its
	// cores as upper bounds, which costs one pass over the lists when
	// they are exact. Cores below the graph's are not detected.
	FromResult *Result
}

// Maintainer keeps the core numbers of a Graph exact across edge
// insertions (SemiInsert/SemiInsert*) and deletions (SemiDelete*). All
// updates go through the graph's buffered overlay; compactions to disk
// happen automatically and are counted as write I/O.
type Maintainer struct {
	g       *Graph
	session *maintain.Session
	insert  InsertAlgorithm
}

// NewMaintainer starts a maintenance session, decomposing the graph with
// SemiCore* first unless opts.FromResult is a SemiCore* Result (see
// MaintainerOptions.FromResult).
func NewMaintainer(g *Graph, opts *MaintainerOptions) (*Maintainer, error) {
	var o MaintainerOptions
	if opts != nil {
		o = *opts
	}
	var session *maintain.Session
	switch r := o.FromResult; {
	case r == nil:
		var err error
		if session, err = maintain.NewSession(g.dyn, stats.NewMemModel()); err != nil {
			return nil, err
		}
	case uint32(len(r.Core)) != g.NumNodes():
		return nil, fmt.Errorf("kcore: FromResult covers %d nodes, graph has %d", len(r.Core), g.NumNodes())
	case r.cnt != nil:
		session = maintain.SessionFrom(g.dyn, &semicore.State{Core: r.Core, Cnt: r.cnt})
	default:
		res, err := semicore.SemiCoreStarFrom(g.dyn, r.Core, nil)
		if err != nil {
			return nil, err
		}
		session = maintain.SessionFrom(g.dyn, &semicore.State{Core: res.Core, Cnt: res.Cnt})
	}
	return &Maintainer{g: g, session: session, insert: o.Insert}, nil
}

// Cores returns the live core-number array. It is valid after every
// operation; callers must copy it if they mutate or retain it across
// operations.
func (m *Maintainer) Cores() []uint32 { return m.session.Core() }

// Cnt returns the live Eq. 2 support counters, aligned with Cores and
// aliasing the maintained state the same way.
func (m *Maintainer) Cnt() []int32 { return m.session.Cnt() }

// CoreOf reports the current core number of v.
func (m *Maintainer) CoreOf(v uint32) (uint32, error) {
	if v >= m.g.NumNodes() {
		return 0, fmt.Errorf("kcore: node %d out of range [0,%d)", v, m.g.NumNodes())
	}
	return m.session.Core()[v], nil
}

// InsertEdge adds {u,v} and incrementally repairs all core numbers.
func (m *Maintainer) InsertEdge(u, v uint32) (RunInfo, error) {
	before := m.g.IOStats()
	var rs stats.RunStats
	var err error
	if m.insert == SemiInsertTwoPhase {
		rs, err = m.session.InsertTwoPhase(u, v)
	} else {
		rs, err = m.session.InsertStar(u, v)
	}
	if err != nil {
		return RunInfo{}, err
	}
	rs.IO = m.g.IOStats().Sub(before)
	return rs, nil
}

// DeleteEdge removes {u,v} and incrementally repairs all core numbers
// (SemiDelete*).
func (m *Maintainer) DeleteEdge(u, v uint32) (RunInfo, error) {
	before := m.g.IOStats()
	rs, err := m.session.DeleteStar(u, v)
	if err != nil {
		return RunInfo{}, err
	}
	rs.IO = m.g.IOStats().Sub(before)
	return rs, nil
}

// DeleteEdges removes a batch of edges with a single converge pass —
// cheaper than one DeleteEdge per edge when the batch is large, because
// the affected region is scanned once. The batch is atomic with respect
// to invalid edges: if any edge is absent (or duplicated within the
// batch, which makes its second occurrence absent), the already-removed
// prefix is rolled back and the graph is left unchanged. Note the
// asymmetry with InsertEdges, which applies edge-by-edge and does NOT
// roll back; callers that need all-or-nothing semantics for insertions
// must validate the batch first (as internal/serve does).
func (m *Maintainer) DeleteEdges(edges []Edge) (RunInfo, error) {
	before := m.g.IOStats()
	rs, err := m.session.BatchDelete(edges)
	if err != nil {
		return RunInfo{}, err
	}
	rs.IO = m.g.IOStats().Sub(before)
	return rs, nil
}

// InsertEdges adds a batch of edges, applying the configured insertion
// algorithm per edge. A single SemiCore* pass from min(deg', core + I),
// I the batch's size, would also reach the new cores (one insert raises
// any core by at most 1; see internal/maintain.BatchInsert), but is not
// taken here. The batch is NOT atomic: edges are validated as they are
// applied, so when a mid-batch edge errors (duplicate, self-loop,
// out-of-range id) the already-inserted prefix stays applied — with
// exact core numbers — and the failing edge and everything after it are
// not. The RunInfo returned with the error is that prefix's work: its
// I/O, node computations and dirty nodes. This holds on both the
// SemiInsert* and the two-phase SemiInsert path. Callers needing
// all-or-nothing behaviour must pre-validate the batch against the graph
// (see internal/serve's applyRun) or delete the prefix on error.
func (m *Maintainer) InsertEdges(edges []Edge) (RunInfo, error) {
	before := m.g.IOStats()
	rs, err := m.session.BatchInsert(edges, m.insert == SemiInsertTwoPhase)
	rs.IO = m.g.IOStats().Sub(before)
	return rs, err
}
