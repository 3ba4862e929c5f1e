package storage

import (
	"slices"
	"testing"
)

// FuzzEdgeListDecode hands the list decoder of either format version
// arbitrary bytes as one whole list, a degree and a node count. Whatever
// it is given it never panics and never reads past the list (the slice
// has no capacity beyond it); a length no gap width gives is refused;
// and a list it accepts holds exactly deg ids, strictly
// ascending, each below n, which encode back to bytes that decode to the
// same ids.
func FuzzEdgeListDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1}, uint32(3), uint32(9), false)
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0}, uint32(3), uint32(70000), false)
	f.Add([]byte{5, 0, 0, 0, 9, 0, 0, 0}, uint32(2), uint32(10), true)
	f.Add([]byte{3, 0, 0}, uint32(3), uint32(9), false)
	f.Fuzz(func(t *testing.T, data []byte, deg, n uint32, v1 bool) {
		version := FormatVersion
		if v1 {
			version = 1
		}
		c := codecOf(Meta{Version: version, N: n})
		raw := data[:len(data):len(data)]
		_, ok := c.width(int64(len(raw)), deg)
		ids, err := c.decode(raw, deg, make([]uint32, 3))
		if !ok && err == nil {
			t.Fatalf("%d bytes decoded as %d ids, a length the tiling refuses", len(raw), deg)
		}
		if err != nil {
			return
		}
		if len(ids) != int(deg) {
			t.Fatalf("decoded %d ids, want %d", len(ids), deg)
		}
		for i, id := range ids {
			if id >= n || (i > 0 && id <= ids[i-1]) {
				t.Fatalf("decoded %v: id %d at %d is out of range [0,%d) or not ascending", ids, id, i, n)
			}
		}
		if v1 {
			return
		}
		enc, w := c.encode(nil, ids)
		if again, err := c.decode(enc, deg, nil); err != nil || !slices.Equal(again, ids) {
			t.Fatalf("encode(%v) decodes to %v (%v)", ids, again, err)
		}
		if got, ok := c.width(int64(len(enc)), deg); !ok || got != w {
			t.Fatalf("encode(%v) reports gap width %d, its length gives %d (%v)", ids, w, got, ok)
		}
	})
}
