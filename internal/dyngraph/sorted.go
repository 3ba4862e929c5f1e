package dyngraph

import "kcore/internal/graph"

// The update buffer is a pair of maps from node to a sorted neighbour
// list: inserted arcs and deleted arcs, edited with graph.InsertSorted
// and graph.RemoveSorted.

// Merge overlays buffered inserts/deletes onto a disk adjacency list,
// writing the result into out. disk and ins are sorted and disjoint; del
// is a subset of disk.
func Merge(disk, ins, del, out []uint32) []uint32 {
	out = out[:0]
	i, j := 0, 0
	for i < len(disk) || j < len(ins) {
		var x uint32
		if i < len(disk) && (j >= len(ins) || disk[i] <= ins[j]) {
			x = disk[i]
			i++
			if graph.Contains(del, x) {
				continue
			}
		} else {
			x = ins[j]
			j++
		}
		out = append(out, x)
	}
	return out
}

// CopyOverlay copies one buffer map for a pinned view: the owner edits
// its lists in place, so the view needs its own. The copied lists are
// carved out of buf (grown as needed and returned), so one backing array
// can serve every list of both maps.
func CopyOverlay(m map[uint32][]uint32, buf []uint32) (map[uint32][]uint32, []uint32) {
	out := make(map[uint32][]uint32, len(m))
	for v, l := range m {
		start := len(buf)
		buf = append(buf, l...)
		out[v] = buf[start:len(buf):len(buf)]
	}
	return out, buf
}
