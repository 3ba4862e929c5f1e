package dyngraph

import "sort"

// The update buffer is a pair of maps from node to a sorted neighbour
// list: inserted arcs and deleted arcs. The helpers below are the whole
// of its list arithmetic.

// Contains reports whether the sorted list l holds x.
func Contains(l []uint32, x uint32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	return i < len(l) && l[i] == x
}

// InsertSorted adds x to the sorted list l, which must not hold it.
func InsertSorted(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = x
	return l
}

// RemoveSorted drops x from the sorted list l if it is there.
func RemoveSorted(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	if i < len(l) && l[i] == x {
		copy(l[i:], l[i+1:])
		l = l[:len(l)-1]
	}
	return l
}

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
			if Contains(del, x) {
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
