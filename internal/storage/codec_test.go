package storage

import (
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
)

// FuzzEdgeListDecode hands the list decoder arbitrary bytes as one whole
// list, with a degree, a node count, the form a node record would give
// (a gap width, 0 for the variable form, or 32 + k for the Rice form at
// parameter k) and a format version: 6 (fixed widths and uvarints) or,
// for any other value, 7 (Rice beside them). Whatever it is given it
// never panics and never reads past the list's capacity; a fixed-width
// list whose length the form does not give is refused; and a list it
// accepts holds exactly deg ids, strictly ascending, each below n. The
// bytes decode alike with no capacity past them and with 16 bytes of
// capacity holding 0x80s, every one a continuation byte and a Rice run's
// end: what lies past a list decides nothing. A list it accepts encodes
// back to identical bytes in the same form: its one encoding, the
// shortest of the version's forms.
func FuzzEdgeListDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1}, uint32(3), uint32(9), uint8(1), uint8(6))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0}, uint32(3), uint32(70000), uint8(2), uint8(6))
	f.Add([]byte{0, 0, 0, 0x10, 0, 0, 0, 0x10}, uint32(2), uint32(1<<30), uint8(4), uint8(7))
	f.Add([]byte{3, 0, 0}, uint32(3), uint32(9), uint8(1), uint8(7))
	f.Add([]byte{0x36}, uint32(2), uint32(300), uint8(riceForm+2), uint8(7))
	f.Add([]byte{0x00, 0xc8, 0x01}, uint32(2), uint32(70000), uint8(varForm), uint8(7))
	f.Add([]byte{5, 2}, uint32(2), uint32(70000), uint8(varForm), uint8(6))
	f.Add([]byte{0x80, 0x04, 1, 1, 1, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint32(18), uint32(70000), uint8(varForm), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, deg, n uint32, w, version uint8) {
		if version != 6 {
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
		if enc, fw := c.encode(nil, ids); fw != w || string(enc) != string(raw) {
			t.Fatalf("%x (form %d) decodes to %v, which encodes to %x (form %d)", raw, w, ids, enc, fw)
		}
	})
}

// BenchmarkListDecode decodes every list of rmat17 (RMAT(17, 12) at seed
// 1, as gengraph and the benchmark generate it) once per iteration:
// "fixed-width" with every list at its fixed width, the form every list
// took before uvarints and Rice, "version-6" in the shorter of that and
// uvarints, and "version-7" in the shortest of fixed width, uvarints and
// Rice, the form the Builder writes. Each list is read as a graph reads
// it, with capacity past its bytes (the table's). It reports the encoded
// size as MB/s against the time, and the table's bytes per arc.
func BenchmarkListDecode(b *testing.B) {
	csr := gen.Build(gen.RMAT(17, 12, .57, .19, .19, 1))
	n := csr.NumNodes()
	v6, v7 := codecOf(Meta{Version: 6, N: n}), codecOf(Meta{Version: 7, N: n})
	for _, c := range []struct {
		name  string
		codec listCodec
		fixed bool // every list at its fixed width, decoded as such
	}{{"fixed-width", v7, true}, {"version-6", v6, false}, {"version-7", v7, false}} {
		var table []byte
		lists := make([]list, n)
		for v := range n {
			nbrs := csr.Neighbors(v)
			l := list{off: int64(len(table)), deg: uint32(len(nbrs))}
			if c.fixed {
				l.w = uint8(c.codec.idw) // a list of at most one id's
				if len(nbrs) > 1 {
					l.w = 1
				}
				for i := 1; i < len(nbrs); i++ {
					l.w = max(l.w, byteWidth(nbrs[i]-nbrs[i-1]))
				}
				table = c.codec.appendFixed(table, nbrs, l.w)
			} else {
				table, l.w = c.codec.encode(table, nbrs)
			}
			l.size = int64(len(table)) - l.off
			lists[v] = l
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(table)))
			b.ReportMetric(float64(len(table))/float64(csr.NumArcs()), "B/arc")
			var buf []uint32
			for range b.N {
				for v, l := range lists {
					raw := table[l.off : l.off+l.size]
					var err error
					if c.fixed {
						buf, err = c.codec.decodeFixed(raw, l.deg, l.w, buf)
					} else {
						buf, err = c.codec.decode(raw, l.deg, l.w, buf)
					}
					if err != nil {
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
