package testutil

import (
	"math/rand"

	"kcore/internal/graph"
)

// Op is the kind of one generated mutation.
type Op uint8

const (
	// OpInsert adds an edge.
	OpInsert Op = iota
	// OpDelete removes an edge.
	OpDelete
)

// Mutation is one generated edge update. Valid reports whether the
// update was consistent with the stream's mirror when it was generated:
// an insert of an absent edge, or a delete of a present one, with
// distinct in-range endpoints. Invalid mutations (duplicates, absent
// deletes, self-loops, out-of-range ids) are part of the standard
// workload — serving layers must reject them without failing — but
// maintenance-level tests can skip them via NextValid.
type Mutation struct {
	Op    Op
	U, V  uint32
	Valid bool
}

// MutationStream generates the repository's standard randomized update
// workload against an internally tracked mirror of the live edge set:
// roughly 40% deletes of live edges, 40% inserts of random (possibly
// duplicate) pairs, and 20% deliberately invalid updates. The mirror
// makes the stream self-consistent — every Valid mutation really is
// applicable at the moment it is emitted — and exposes the exact live
// edge set for read-your-writes and reference-recompute checks.
//
// The same seed always yields the same stream, so any conformance
// failure replays with `-seed`.
type MutationStream struct {
	r       *rand.Rand
	n       uint32
	present map[uint64]bool
	live    []graph.Edge
}

// NewMutationStream builds a stream over node ids [0, n) whose mirror
// starts at the given live edge set (the fixture's deduplicated edges).
func NewMutationStream(n uint32, seed int64, live []graph.Edge) *MutationStream {
	m := &MutationStream{
		r:       rand.New(rand.NewSource(seed)),
		n:       n,
		present: make(map[uint64]bool, len(live)),
	}
	for _, e := range live {
		m.present[edgeKey(e.U, e.V)] = true
		m.live = append(m.live, e)
	}
	return m
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Next emits the next mutation of the mixed valid/invalid workload and
// keeps the mirror current.
func (m *MutationStream) Next() Mutation {
	for {
		switch c := m.r.Intn(10); {
		case c < 4 && len(m.live) > 0: // delete a live edge
			j := m.r.Intn(len(m.live))
			e := m.live[j]
			m.live[j] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			m.present[edgeKey(e.U, e.V)] = false
			return Mutation{Op: OpDelete, U: e.U, V: e.V, Valid: true}
		case c < 8: // insert a random (possibly duplicate) pair
			u, v := m.randNode(), m.randNode()
			mut := Mutation{Op: OpInsert, U: u, V: v}
			if u != v && !m.present[edgeKey(u, v)] {
				m.present[edgeKey(u, v)] = true
				m.live = append(m.live, graph.Edge{U: min(u, v), V: max(u, v)})
				mut.Valid = true
			}
			return mut
		case c == 8: // invalid: self-loop or out-of-range
			if m.r.Intn(2) == 0 {
				v := m.randNode()
				return Mutation{Op: OpInsert, U: v, V: v}
			}
			return Mutation{Op: OpDelete, U: m.n + 17, V: 0}
		default: // invalid: delete an absent edge
			u, v := m.randNode(), m.randNode()
			if u == v || m.present[edgeKey(u, v)] {
				continue // try again; the absent-delete slot wants a miss
			}
			return Mutation{Op: OpDelete, U: u, V: v}
		}
	}
}

// NextValid emits the next valid mutation, discarding the stream's
// invalid ones — the shape maintenance-level tests want, where an
// invalid op is an error rather than traffic.
func (m *MutationStream) NextValid() Mutation {
	for {
		if mut := m.Next(); mut.Valid {
			return mut
		}
	}
}

// TakeLive removes and returns a uniformly random live edge from the
// mirror — the guaranteed-valid delete draw. ok is false when the
// mirror is empty.
func (m *MutationStream) TakeLive() (e graph.Edge, ok bool) {
	if len(m.live) == 0 {
		return graph.Edge{}, false
	}
	j := m.r.Intn(len(m.live))
	e = m.live[j]
	m.live[j] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	m.present[edgeKey(e.U, e.V)] = false
	return e, true
}

// MakeAbsent draws a uniformly random absent pair, adds it to the
// mirror, and returns it — the guaranteed-valid insert draw.
func (m *MutationStream) MakeAbsent() graph.Edge {
	for {
		u, v := m.randNode(), m.randNode()
		if u == v || m.present[edgeKey(u, v)] {
			continue
		}
		m.present[edgeKey(u, v)] = true
		e := graph.Edge{U: min(u, v), V: max(u, v)}
		m.live = append(m.live, e)
		return e
	}
}

func (m *MutationStream) randNode() uint32 { return uint32(m.r.Intn(int(m.n))) }

// Rand exposes the stream's deterministic source, for tests that need
// auxiliary random choices (worker picks, block-local pairs) replayable
// under the same seed. Interleaving Rand draws with Next is fine — both
// consume the one source, deterministically.
func (m *MutationStream) Rand() *rand.Rand { return m.r }

// Live returns a copy of the mirror's current edge set, each edge with
// U < V.
func (m *MutationStream) Live() []graph.Edge {
	return append([]graph.Edge(nil), m.live...)
}
