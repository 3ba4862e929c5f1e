package graph

import (
	"cmp"
	"slices"
)

// Adjacency lists are sorted ascending (see Source). These helpers are
// the whole of the list arithmetic the mutable adjacencies (dyngraph's
// update buffer of uint64 arc keys, imcore.DynGraph's uint32 lists) and
// the neighbour checks share.

// Contains reports whether the sorted list l holds x.
func Contains[T cmp.Ordered](l []T, x T) bool {
	_, ok := slices.BinarySearch(l, x)
	return ok
}

// InsertSorted adds x to the sorted list l, which must not hold it.
func InsertSorted[T cmp.Ordered](l []T, x T) []T {
	i, _ := slices.BinarySearch(l, x)
	return slices.Insert(l, i, x)
}

// RemoveSorted drops x from the sorted list l if it is there.
func RemoveSorted[T cmp.Ordered](l []T, x T) []T {
	if i, ok := slices.BinarySearch(l, x); ok {
		l = slices.Delete(l, i, i+1)
	}
	return l
}
