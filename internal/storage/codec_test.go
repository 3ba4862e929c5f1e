package storage

import (
	"slices"
	"testing"

	"kcore/internal/gen"
)

// FuzzEdgeListDecode hands the list decoder arbitrary bytes as one whole
// list, with a degree, a node count, the form a node record would give
// (a gap width, or 0 for group varint) and a format version: 1, 4 (the
// fixed-width lists of versions 2 to 4) or, for any other value, the
// current one. Whatever it is given it never panics and never reads past
// the list (the slice has no capacity beyond it); a fixed-width list
// whose length the form does not give is refused; and a list it accepts
// holds exactly deg ids, strictly ascending, each below n. A current
// list it accepts encodes back to identical bytes in the same form: its
// one encoding, the shorter of the two forms. A version-4 list encodes
// back to bytes that decode to the same ids.
func FuzzEdgeListDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1}, uint32(3), uint32(9), uint8(1), uint8(4))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0}, uint32(3), uint32(70000), uint8(2), uint8(4))
	f.Add([]byte{5, 0, 0, 0, 9, 0, 0, 0}, uint32(2), uint32(10), uint8(4), uint8(1))
	f.Add([]byte{3, 0, 0}, uint32(3), uint32(9), uint8(1), uint8(4))
	f.Add([]byte{0x00, 5, 2}, uint32(2), uint32(70000), uint8(groupVarint), uint8(FormatVersion))
	f.Add([]byte{0x40, 1, 1, 1, 1, 0x00, 1}, uint32(5), uint32(70000), uint8(groupVarint), uint8(FormatVersion))
	f.Fuzz(func(t *testing.T, data []byte, deg, n uint32, w, version uint8) {
		if version != 1 && version != 4 {
			version = FormatVersion
		}
		c := codecOf(Meta{Version: int(version), N: n})
		raw := data[:len(data):len(data)]
		ids, err := c.decode(raw, deg, w, make([]uint32, 3))
		if err != nil {
			return
		}
		if w != groupVarint && c.length(deg, w) != int64(len(raw)) {
			t.Fatalf("%d bytes decoded as %d ids at gap width %d, a length the form refuses", len(raw), deg, w)
		}
		if len(ids) != int(deg) {
			t.Fatalf("decoded %d ids, want %d", len(ids), deg)
		}
		for i, id := range ids {
			if id >= n || (i > 0 && id <= ids[i-1]) {
				t.Fatalf("decoded %v: id %d at %d is out of range [0,%d) or not ascending", ids, id, i, n)
			}
		}
		if version == 1 {
			return
		}
		enc, fw := c.encode(nil, ids)
		if version == FormatVersion && (fw != w || string(enc) != string(raw)) {
			t.Fatalf("%x (form %d) decodes to %v, which encodes to %x (form %d)", raw, w, ids, enc, fw)
		}
		if again, err := c.decode(enc, deg, fw, nil); err != nil || !slices.Equal(again, ids) {
			t.Fatalf("encode(%v) decodes to %v (%v)", ids, again, err)
		}
	})
}

// BenchmarkListDecode decodes every list of rmat17 (RMAT(17, 12) at seed
// 1, as gengraph and the benchmark generate it) once per iteration:
// "fixed-width" in the fixed-width form of format version 4, the form
// every list took before version 5, and "version-5" in the form the
// current codec picks for each, the shorter of the two. It reports the
// encoded size as MB/s against the time, and the table's bytes per arc.
func BenchmarkListDecode(b *testing.B) {
	csr := gen.Build(gen.RMAT(17, 12, .57, .19, .19, 1))
	n := csr.NumNodes()
	for _, c := range []struct {
		name    string
		version int
	}{{"fixed-width", 4}, {"version-5", FormatVersion}} {
		codec := codecOf(Meta{Version: c.version, N: n})
		var table []byte
		lists := make([]list, n)
		for v := range n {
			off := int64(len(table))
			var w uint8
			table, w = codec.encode(table, csr.Neighbors(v))
			lists[v] = list{off: off, size: int64(len(table)) - off, deg: uint32(len(csr.Neighbors(v))), w: w}
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(table)))
			b.ReportMetric(float64(len(table))/float64(csr.NumArcs()), "B/arc")
			var buf []uint32
			for range b.N {
				for v, l := range lists {
					var err error
					if buf, err = codec.decode(table[l.off:l.off+l.size:l.off+l.size], l.deg, l.w, buf); err != nil {
						b.Fatalf("node %d: %v", v, err)
					}
				}
			}
		})
	}
}
