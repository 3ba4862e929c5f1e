package semicore

import (
	"fmt"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// Passes is the one partial-scan pass engine: the paper's UpdateRange
// (Algorithm 4 lines 17-21) and the pass loop around it, written once for
// SemiCore+, SemiCore* (State.Converge: SemiDelete*, BatchDelete and
// SemiInsert's phase 2 too), SemiInsert's phase 1 and SemiInsert*.
//
// A pass scans its window of positions (graph.Source.Positions) with
// ScanDynamic, visiting the nodes want selects. A visit calls Mark(x) for
// every node x it wants visited again: x ahead of the cursor in the
// layout extends the current pass to it, x at or behind the cursor widens
// the next pass's window [min, max]. The loop stops after a pass that
// marks nothing at or behind its cursor. Each pass is one iteration of
// Stats, with one UpdatedPerIter entry and one Trace row.
type Passes struct {
	Stats *stats.RunStats
	Trace Trace    // may be nil
	Core  []uint32 // the array a trace row shows

	layout           []uint32 // the source's positions, lent (nil: id order)
	cursor, curMax   uint32   // positions
	nextMin, nextMax int64
	updated          int64
	computed         []uint32
}

// Run drives passes from the window of positions [pmin, pmax] until one
// marks nothing behind its cursor. A window past the last position is an
// error.
func (p *Passes) Run(g graph.Source, pmin, pmax uint32, want func(v uint32) bool, visit func(v uint32, nbrs []uint32) error) error {
	n := g.NumNodes()
	if pmax >= n {
		return fmt.Errorf("semicore: pass window [%d,%d] exceeds n=%d", pmin, pmax, n)
	}
	p.layout = g.Positions()
	for {
		p.curMax = pmax
		p.nextMin, p.nextMax = int64(n), -1
		p.updated = 0
		p.computed = p.computed[:0]
		err := g.ScanDynamic(pmin,
			func() uint32 { return p.curMax },
			want,
			func(v uint32, nbrs []uint32) error {
				p.cursor = p.at(v)
				return visit(v, nbrs)
			})
		if err != nil {
			return err
		}
		p.Stats.Iterations++
		p.Stats.UpdatedPerIter = append(p.Stats.UpdatedPerIter, p.updated)
		if p.Trace != nil {
			p.Trace(p.Stats.Iterations, p.computed, p.Core)
		}
		if p.nextMax < 0 {
			return nil
		}
		pmin, pmax = uint32(p.nextMin), uint32(p.nextMax)
	}
}

// Mark asks for x to be visited again: in this pass when x is ahead of
// the cursor, else in the next pass (UpdateRange).
func (p *Passes) Mark(x uint32) { p.markAt(p.at(x)) }

// at reports x's position.
func (p *Passes) at(x uint32) uint32 { return graph.Pos(p.layout, x) }

// markAt is Mark of the node at position px.
func (p *Passes) markAt(px uint32) {
	if px > p.cursor {
		p.curMax = max(p.curMax, px)
		return
	}
	p.nextMin, p.nextMax = min(p.nextMin, int64(px)), max(p.nextMax, int64(px))
}

// Computed counts one node computation of v in the running pass; changed
// counts it in the pass's UpdatedPerIter entry too.
func (p *Passes) Computed(v uint32, changed bool) {
	p.Stats.NodeComputations++
	if changed {
		p.updated++
	}
	if p.Trace != nil {
		p.computed = append(p.computed, v)
	}
}

// Pass reports the 1-based index of the running pass within Stats.
func (p *Passes) Pass() int { return p.Stats.Iterations + 1 }

// Window reports the positions of nodes, lowest and highest, a pass
// window that covers them all; nodes must not be empty.
func Window(g graph.Source, nodes []uint32) (pmin, pmax uint32) {
	pmin, pmax = g.NumNodes()-1, 0
	layout := g.Positions()
	for _, v := range nodes {
		p := graph.Pos(layout, v)
		pmin, pmax = min(pmin, p), max(pmax, p)
	}
	return pmin, pmax
}
