package storage

import (
	"encoding/binary"
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
)

// encodeGroups appends nbrs to dst in the group-varint form of format
// version 5, which the codec reads and no longer writes: groups of four
// values, the first id and then the gaps, behind a control byte of their
// byte lengths minus one, each value in the fewest bytes that hold it.
func encodeGroups(dst []byte, nbrs []uint32) []byte {
	prev := uint32(0)
	for i := 0; i < len(nbrs); i += 4 {
		ctl := len(dst)
		dst = append(dst, 0)
		for j, u := range nbrs[i:min(i+4, len(nbrs))] {
			k := byteWidth(u - prev)
			dst[ctl] |= (k - 1) << (2 * j)
			n := len(dst)
			dst = binary.LittleEndian.AppendUint32(dst, u-prev)[:n+int(k)]
			prev = u
		}
	}
	return dst
}

// encodeAs appends nbrs to dst as the codec c stores it and reports the
// form: c.encode's, or for a version-5 list in the variable form
// encodeGroups'.
func encodeAs(c listCodec, dst []byte, nbrs []uint32) ([]byte, uint8) {
	if w, _ := c.form(nbrs); c.gv && w == varForm {
		return encodeGroups(dst, nbrs), w
	}
	return c.encode(dst, nbrs)
}

// FuzzEdgeListDecode hands the list decoder arbitrary bytes as one whole
// list, with a degree, a node count, the form a node record would give
// (a gap width, 0 for the variable form, or 32 + k for the Rice form at
// parameter k) and a format version: 1, 4 (the fixed-width lists of
// versions 2 to 4), 5 (group varint beside them), 6 (uvarints beside
// them) or, for any other value, 7 (uvarints and Rice beside them).
// Whatever it is given it never panics and never reads past the list's
// capacity; a fixed-width list whose length the form does not give is
// refused; and a list it accepts holds exactly deg ids, strictly
// ascending, each below n. The bytes decode alike with no capacity past
// them and with 16 bytes of capacity holding 0x80s, every one a
// continuation byte and a Rice run's end: what lies past a list decides
// nothing. A version-5, -6 or -7 list it accepts encodes back to
// identical bytes in the same form: its one encoding, the shortest of
// the version's forms. A version-4 list encodes back to bytes that
// decode to the same ids.
func FuzzEdgeListDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1}, uint32(3), uint32(9), uint8(1), uint8(4))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0}, uint32(3), uint32(70000), uint8(2), uint8(4))
	f.Add([]byte{5, 0, 0, 0, 9, 0, 0, 0}, uint32(2), uint32(10), uint8(4), uint8(1))
	f.Add([]byte{3, 0, 0}, uint32(3), uint32(9), uint8(1), uint8(4))
	f.Add([]byte{0x00, 5, 2}, uint32(2), uint32(70000), uint8(varForm), uint8(5))
	f.Add([]byte{0x40, 1, 1, 1, 1, 0x00, 1}, uint32(5), uint32(70000), uint8(varForm), uint8(5))
	f.Add([]byte{5, 2}, uint32(2), uint32(70000), uint8(varForm), uint8(6))
	f.Add([]byte{0x80, 0x04, 1, 1, 1, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint32(18), uint32(70000), uint8(varForm), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, deg, n uint32, w, version uint8) {
		if version != 1 && version != 4 && version != 5 && version != 6 {
			version = FormatVersion
		}
		c := codecOf(Meta{Version: int(version), N: n})
		raw := data[:len(data):len(data)]
		ids, err := c.decode(raw, deg, w, make([]uint32, 3))
		spare := append(slices.Clone(raw), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
		again, errAgain := c.decode(spare[:len(raw)], deg, w, nil)
		if (err == nil) != (errAgain == nil) || !slices.Equal(ids, again) {
			t.Fatalf("%x decodes to %v (%v), and with capacity past it to %v (%v)", raw, ids, err, again, errAgain)
		}
		if err != nil {
			return
		}
		if w != varForm && w < riceForm && c.length(deg, w) != int64(len(raw)) {
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
		enc, fw := encodeAs(c, nil, ids)
		if version >= 5 && (fw != w || string(enc) != string(raw)) {
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
// every list took before version 5, "version-5" in the shorter of that
// and group varint, "version-6" in the shorter of that and uvarints, and
// "version-7" in the shortest of fixed width, uvarints and Rice, the form
// the Builder writes. Each list is read as a graph reads it,
// with capacity past its bytes (the table's). It reports the encoded
// size as MB/s against the time, and the table's bytes per arc.
func BenchmarkListDecode(b *testing.B) {
	csr := gen.Build(gen.RMAT(17, 12, .57, .19, .19, 1))
	n := csr.NumNodes()
	for _, c := range []struct {
		name    string
		version int
	}{{"fixed-width", 4}, {"version-5", 5}, {"version-6", 6}, {"version-7", 7}} {
		codec := codecOf(Meta{Version: c.version, N: n})
		var table []byte
		lists := make([]list, n)
		for v := range n {
			off := int64(len(table))
			var w uint8
			table, w = encodeAs(codec, table, csr.Neighbors(v))
			lists[v] = list{off: off, size: int64(len(table)) - off, deg: uint32(len(csr.Neighbors(v))), w: w}
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(table)))
			b.ReportMetric(float64(len(table))/float64(csr.NumArcs()), "B/arc")
			var buf []uint32
			for range b.N {
				for v, l := range lists {
					var err error
					if buf, err = codec.decode(table[l.off:l.off+l.size], l.deg, l.w, buf); err != nil {
						b.Fatalf("node %d: %v", v, err)
					}
				}
			}
		})
	}
}

// TestVersion7NeverLongerThanVersion6 encodes every list of ER, BA,
// R-MAT, small-world and social graphs of 2^14 nodes, at seeds 1 to 3, as
// format versions 6 and 7 store them: no list takes more bytes in
// version 7, whose Rice form is taken only where it is strictly shorter
// than both of version 6's, and on R-MAT and BA the edge table is
// strictly shorter. It logs each family's edge and node tables (the
// node table in id order, one record a node) in both versions, summed
// over the seeds.
func TestVersion7NeverLongerThanVersion6(t *testing.T) {
	const n = 1 << 14
	for _, fam := range []struct {
		name    string
		edges   func(seed int64) []graph.Edge
		shorter bool // version 7's edge table must be strictly shorter
	}{
		{"er", func(s int64) []graph.Edge { return gen.ErdosRenyi(n, 6*n, s) }, false},
		{"ba", func(s int64) []graph.Edge { return gen.BarabasiAlbert(n, 6, s) }, true},
		{"rmat", func(s int64) []graph.Edge { return gen.RMAT(14, 12, .57, .19, .19, s) }, true},
		{"smallworld", func(s int64) []graph.Edge { return gen.SmallWorld(n, 6, 0.1, s) }, false},
		{"social", func(s int64) []graph.Edge { return gen.Social(n, 4, 12, 12, s) }, false},
	} {
		var et, nt [2]int64 // versions 6 and 7, over the seeds
		for seed := int64(1); seed <= 3; seed++ {
			csr := gen.Build(fam.edges(seed))
			codecs := [2]listCodec{codecOf(Meta{Version: 6, N: csr.NumNodes()}), codecOf(Meta{Version: 7, N: csr.NumNodes()})}
			var seedET [2]int64
			for v := range csr.NumNodes() {
				nbrs := csr.Neighbors(v)
				var size [2]int64
				for i, c := range codecs {
					w, s := c.form(nbrs)
					size[i] = s
					nt[i] += int64(len(c.appendRecord(nil, list{size: s, deg: uint32(len(nbrs)), w: w})))
				}
				if size[1] > size[0] {
					t.Fatalf("%s seed %d: node %d's list takes %d bytes in version 7, %d in version 6", fam.name, seed, v, size[1], size[0])
				}
				seedET[0], seedET[1] = seedET[0]+size[0], seedET[1]+size[1]
			}
			if fam.shorter && seedET[1] >= seedET[0] {
				t.Errorf("%s seed %d: the version-7 edge table takes %d bytes, version 6's %d", fam.name, seed, seedET[1], seedET[0])
			}
			et[0], et[1] = et[0]+seedET[0], et[1]+seedET[1]
		}
		t.Logf("%-10s edge table %9d → %9d bytes (%+.1f%%), node table %7d → %7d", fam.name, et[0], et[1], 100*float64(et[1]-et[0])/float64(et[0]), nt[0], nt[1])
	}
}
