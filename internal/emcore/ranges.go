package emcore

// NodeRange is one contiguous node range [Lo, Hi) holding Arcs arcs —
// the partition unit of the EMCore layout. Contiguous ranges under an
// arc budget are the deviation from Cheng et al.'s clustering heuristic
// documented in the package comment.
type NodeRange struct {
	Lo, Hi uint32
	Arcs   int64
}

// RangePlanner accumulates a node-order degree stream into contiguous
// ranges, closing each range as soon as it holds at least the target
// number of arcs. It is the boundary-decision core of buildPartitions.
type RangePlanner struct {
	target int64
	cur    NodeRange
	open   bool
	out    []NodeRange
}

// NewRangePlanner plans ranges of at least targetArcs arcs each (the
// final range may hold fewer). Targets below 1 are clamped to 1.
func NewRangePlanner(targetArcs int64) *RangePlanner {
	if targetArcs < 1 {
		targetArcs = 1
	}
	return &RangePlanner{target: targetArcs}
}

// Add accounts node v carrying deg arcs into the open range, starting a
// new range at v when none is open. Nodes must arrive in increasing
// order. When the addition reaches the target the range is closed at
// Hi = v+1 and returned with ok = true.
func (p *RangePlanner) Add(v, deg uint32) (r NodeRange, ok bool) {
	if !p.open {
		p.cur = NodeRange{Lo: v}
		p.open = true
	}
	p.cur.Arcs += int64(deg)
	if p.cur.Arcs >= p.target {
		p.cur.Hi = v + 1
		p.open = false
		p.out = append(p.out, p.cur)
		return p.cur, true
	}
	return NodeRange{}, false
}

// Finish closes any still-open range at hi and returns every planned
// range in node order. The planner must not be reused afterwards.
func (p *RangePlanner) Finish(hi uint32) []NodeRange {
	if p.open {
		p.cur.Hi = hi
		p.open = false
		p.out = append(p.out, p.cur)
	}
	return p.out
}
