package semicore

import (
	"fmt"
	"slices"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
)

// TestPassesSchedule drives the pass engine over a hand-built path with a
// scripted visit, and checks UpdateRange's contract one rule at a time:
// a mark ahead of the cursor is visited in the same pass, marks at or
// behind it open exactly one next pass over [min, max], a pass that marks
// nothing behind its cursor ends the loop, and every pass adds one
// UpdatedPerIter entry and one trace row.
func TestPassesSchedule(t *testing.T) {
	g, err := memgraph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// marks[pass][v] lists what visiting v marks in that pass.
	marks := map[int]map[uint32][]uint32{
		1: {
			0: {4},    // ahead of the cursor and past the window [0,2]
			2: {2, 1}, // at and behind the cursor
			4: {3},    // behind the cursor
		},
	}
	var rs stats.RunStats
	var tr traceRecorder
	core := make([]uint32, 6)
	p := Passes{Stats: &rs, Trace: tr.fn(), Core: core}
	pending := []bool{true, false, true, false, false, false}
	var scanned [][]uint32 // per pass: every node the scan offered to want
	err = p.Run(g, 0, 2,
		func(v uint32) bool {
			if len(scanned) < p.Pass() {
				scanned = append(scanned, nil)
			}
			scanned[p.Pass()-1] = append(scanned[p.Pass()-1], v)
			return pending[v]
		},
		func(v uint32, nbrs []uint32) error {
			pending[v] = false
			core[v] = uint32(p.Pass())
			p.Computed(v, v%2 == 0)
			for _, x := range marks[p.Pass()][v] {
				pending[x] = true
				p.Mark(x)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	wantScanned := [][]uint32{{0, 1, 2, 3, 4}, {1, 2, 3}}
	wantComputed := [][]uint32{{0, 2, 4}, {1, 2, 3}}
	if fmt.Sprint(scanned) != fmt.Sprint(wantScanned) {
		t.Errorf("scanned windows %v, want %v", scanned, wantScanned)
	}
	if fmt.Sprint(tr.computed) != fmt.Sprint(wantComputed) {
		t.Errorf("trace computed %v, want %v", tr.computed, wantComputed)
	}
	if rs.Iterations != 2 || len(tr.rows) != 2 {
		t.Fatalf("iterations %d, trace rows %d, want 2 and 2", rs.Iterations, len(tr.rows))
	}
	if !slices.Equal(rs.UpdatedPerIter, []int64{3, 1}) || rs.NodeComputations != 6 {
		t.Errorf("UpdatedPerIter %v, computations %d, want [3 1] and 6", rs.UpdatedPerIter, rs.NodeComputations)
	}
	if want := []uint32{1, 2, 2, 2, 1, 0}; !slices.Equal(tr.rows[1], want) {
		t.Errorf("last trace row %v, want %v", tr.rows[1], want)
	}

	// A second run on the same stats continues the iteration count, and a
	// pass that marks nothing ends it after one pass.
	if err := p.Run(g, 5, 5, func(uint32) bool { return true }, func(v uint32, _ []uint32) error {
		p.Computed(v, false)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rs.Iterations != 3 || !slices.Equal(rs.UpdatedPerIter, []int64{3, 1, 0}) || len(tr.rows) != 3 {
		t.Errorf("after a quiet run: iterations %d, UpdatedPerIter %v, rows %d", rs.Iterations, rs.UpdatedPerIter, len(tr.rows))
	}

	if err := p.Run(g, 2, 6, nil, func(uint32, []uint32) error { return nil }); err == nil {
		t.Error("a window past n ran")
	}
}
