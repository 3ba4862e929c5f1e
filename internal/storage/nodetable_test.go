package storage

import (
	"encoding/binary"
	"testing"
)

// FuzzNodeTableDecode hands the version-3 node-table decoder arbitrary
// bytes as a whole table, with a node count, a first-id width and the
// header's edge-table size and arc count, fed in pieces of three bytes so
// records straddle them. Whatever it is given it never panics, never
// reads past the table (the slice has no capacity beyond it) and places
// every list inside the edge table. It accepts exactly what a reference
// decoder built on encoding/binary accepts: n shortest uvarints of at
// most 34 bits and nothing after them, each list of at most one id at
// width idw, the lengths adding up to the edge table and the degrees to
// the arc count. An overlong or truncated varint, a width other than idw
// for a list of at most one id, either sum off or trailing bytes are
// refused. The lists it accepts are the reference's, one after another,
// and re-encode to identical bytes.
func FuzzNodeTableDecode(f *testing.F) {
	f.Add([]byte{0x09, 0x08, 0x04}, uint32(3), uint8(0), int64(6), int64(5))
	f.Add([]byte{0x82, 0x01, 0x02}, uint32(2), uint8(2), int64(96), int64(32))
	f.Add([]byte{0x80, 0x00}, uint32(1), uint8(0), int64(0), int64(0))
	f.Add([]byte{0x08, 0x04}, uint32(1), uint8(0), int64(2), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint32, idw uint8, etBytes, arcs int64) {
		codec := listCodec{n: n, idw: int64(idw%4 + 1)}
		meta := Meta{Version: FormatVersion, N: n, Arcs: arcs, NtBytes: int64(len(data)), EtBytes: etBytes}
		d := &varintRecords{tally: tally{path: "fuzz.nt", meta: meta, codec: codec}}
		var got []list
		keep := func(v uint32, l list) error {
			if int(v) != len(got) {
				t.Fatalf("list %d emitted as node %d", len(got), v)
			}
			if l.off < 0 || l.off+codec.length(l.deg, l.w) > etBytes {
				t.Fatalf("node %d's list [%d,+%d) lies outside the %d-byte edge table", v, l.off, codec.length(l.deg, l.w), etBytes)
			}
			got = append(got, l)
			return nil
		}
		table := data[:len(data):len(data)]
		var err error
		for p := table; err == nil && len(p) > 0; p = p[min(3, len(p)):] {
			err = d.feed(p[:min(3, len(p))], keep)
		}
		if err == nil {
			err = d.done(keep)
		}

		// The reference: each record a uvarint, refused unless it is the
		// shortest encoding of a value below 2^34.
		var (
			want       []list
			off, total int64
			ok         = true
			rest       = table
		)
		for v := uint32(0); ok && v < n; v++ {
			x, k := binary.Uvarint(rest)
			ok = k > 0 && k == len(binary.AppendUvarint(nil, x)) && x < 1<<34
			if !ok {
				break
			}
			rest = rest[k:]
			l := list{off: off, deg: uint32(x >> 2), w: uint8(x&3) + 1}
			ok = l.deg > 1 || int64(l.w) == codec.idw
			off += codec.length(l.deg, l.w)
			total += int64(l.deg)
			ok = ok && off <= etBytes
			want = append(want, l)
		}
		ok = ok && len(rest) == 0 && off == etBytes && total == arcs
		if (err == nil) != ok {
			t.Fatalf("decoder err = %v, the reference accepts: %v", err, ok)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d lists, want %d", len(got), len(want))
		}
		var enc []byte
		for i, l := range got {
			if l != want[i] {
				t.Fatalf("node %d: decoded %+v, want %+v", i, l, want[i])
			}
			enc = appendRecord(enc, l.deg, l.w)
		}
		if string(enc) != string(table) {
			t.Fatalf("the lists re-encode to %x, not %x", enc, table)
		}
	})
}
