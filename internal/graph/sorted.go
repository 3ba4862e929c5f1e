package graph

import "slices"

// Adjacency lists are sorted ascending (see Source). These helpers are
// the whole of the list arithmetic the mutable adjacencies (dyngraph's
// update buffer, imcore.DynGraph) and the neighbour checks share.

// Contains reports whether the sorted list l holds x.
func Contains(l []uint32, x uint32) bool {
	_, ok := slices.BinarySearch(l, x)
	return ok
}

// InsertSorted adds x to the sorted list l, which must not hold it.
func InsertSorted(l []uint32, x uint32) []uint32 {
	i, _ := slices.BinarySearch(l, x)
	return slices.Insert(l, i, x)
}

// RemoveSorted drops x from the sorted list l if it is there.
func RemoveSorted(l []uint32, x uint32) []uint32 {
	if i, ok := slices.BinarySearch(l, x); ok {
		l = slices.Delete(l, i, i+1)
	}
	return l
}
