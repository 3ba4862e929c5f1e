package dyngraph

import "slices"

// The update buffer is two sorted arrays of arc keys, the inserted arcs
// and the deleted ones. The arc from v to u is the key v<<32|u and both
// arcs of every buffered edge are kept, so one node's edits are one
// contiguous run of each array, its neighbours ascending in the low 32
// bits. The arrays hold no pointer, 8 B per buffered arc: a pin is one
// clone of each. They are edited with graph.InsertSorted and
// graph.RemoveSorted, and read through a cursor.

// arc is the key of the arc from v to u.
func arc(v, u uint32) uint64 { return uint64(v)<<32 | uint64(u) }

// cursor hands out a key array's runs. A scan in id order keeps one per
// array and moves it forward: a node whose run is at the cursor costs
// O(1), and one binary search passes over the runs of the nodes the scan
// skipped. A node before the cursor, which a scan of a table laid out in
// another order asks for, costs one binary search of the keys behind it.
type cursor struct {
	keys []uint64
	i    int // keys[:i] belong to nodes before the last one asked for
}

func newCursor(keys []uint64) cursor { return cursor{keys: keys} }

// run returns v's keys and moves the cursor past them.
func (c *cursor) run(v uint32) []uint64 {
	lo, i := arc(v, 0), c.i
	switch {
	case i > 0 && c.keys[i-1] >= lo:
		i, _ = slices.BinarySearch(c.keys[:i], lo)
	case i < len(c.keys) && c.keys[i] < lo:
		j, _ := slices.BinarySearch(c.keys[i:], lo)
		i += j
	}
	j := i
	for j < len(c.keys) && uint32(c.keys[j]>>32) == v {
		j++
	}
	c.i = j
	return c.keys[i:j]
}

// merge overlays one node's buffered edits onto its base list, writing
// the result into out. ins and del are the node's runs; ins is disjoint
// from disk and del a subset of it, so del is walked beside disk.
func merge(disk []uint32, ins, del []uint64, out []uint32) []uint32 {
	out = out[:0]
	for _, x := range disk {
		for len(ins) > 0 && uint32(ins[0]) < x {
			out, ins = append(out, uint32(ins[0])), ins[1:]
		}
		if len(del) > 0 && uint32(del[0]) == x {
			del = del[1:]
			continue
		}
		out = append(out, x)
	}
	for _, k := range ins {
		out = append(out, uint32(k))
	}
	return out
}

// merged is a base degree adjusted by a node's runs.
func merged(deg uint32, ins, del []uint64) uint32 {
	return uint32(int64(deg) + int64(len(ins)) - int64(len(del)))
}

// rebase is one side of the buffer once a pin's edits are in the base:
// the side's arcs the pin did not hold on it, and the arcs the pin held on
// the other side that the buffer no longer does —
// ins' = (ins \ pinIns) ∪ (pinDel \ del) and
// del' = (del \ pinDel) ∪ (pinIns \ ins). The two parts are disjoint (one
// is absent from the old base, the other in it), so one merge orders them.
func rebase(own, pinOwn, pinOther, other []uint64) []uint64 {
	a, b := minus(own, pinOwn), minus(pinOther, other)
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// minus returns the keys of the sorted array a that the sorted array b
// lacks.
func minus(a, b []uint64) []uint64 {
	var out []uint64
	for _, x := range a {
		for len(b) > 0 && b[0] < x {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != x {
			out = append(out, x)
		}
	}
	return out
}
