package storage

import (
	"encoding/binary"
	"testing"
)

// FuzzNodeTableDecode hands the node-table decoder of version 3, 4 or 5
// arbitrary bytes as a whole table, with a node count, a first-id width
// and the header's edge-table size and arc count, fed in pieces of three
// bytes so records straddle them: version 3 unless ids or v5 is set, 4
// when only ids is, and 5 when v5 is, its records led by ids when ids is.
// Whatever it is given it never panics, never reads past the table (the
// slice has no capacity beyond it) and places every list inside the edge
// table. It accepts exactly what a reference decoder built on
// encoding/binary accepts: n records and nothing after them, each a
// shortest uvarint of at most 34 bits (35 in version 5), led when ids is
// set by a shortest varint of at most five bytes whose sum with the id
// before it (−1 before the first) is an id below n met for the first
// time; in version 5 a form of 0 to 3 (a gap width) or 4 (group varint,
// for a list of at least one id, followed by a shortest uvarint of at
// most 3·deg); each fixed-width list of at most one id at width idw; the
// lengths adding up to the edge table and the degrees to the arc count.
// An overlong or truncated varint, a width other than idw for a list of
// at most one id, a form past 4, an empty group-varint list or an excess
// past 3·deg, an id out of range or repeated, either sum off or trailing
// bytes are refused. The lists it accepts are the reference's, with the
// reference's ids, one after another, and re-encode to identical bytes.
func FuzzNodeTableDecode(f *testing.F) {
	f.Add([]byte{0x09, 0x08, 0x04}, uint32(3), uint8(0), int64(6), int64(5), false, false)
	f.Add([]byte{0x82, 0x01, 0x02}, uint32(2), uint8(2), int64(96), int64(32), false, false)
	f.Add([]byte{0x80, 0x00}, uint32(1), uint8(0), int64(0), int64(0), false, false)
	f.Add([]byte{0x08, 0x04}, uint32(1), uint8(0), int64(2), int64(2), false, false)
	f.Add([]byte{0x04, 0x09, 0x03, 0x08, 0x01, 0x04}, uint32(3), uint8(0), int64(6), int64(5), true, false)
	f.Add([]byte{0x2c, 0x03, 0x08, 0x00}, uint32(3), uint8(2), int64(12), int64(6), false, true)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, idw uint8, etBytes, arcs int64, ids, v5 bool) {
		codec := listCodec{n: n, idw: int64(idw%4 + 1), gv: v5}
		version, shift := 3, 2
		if ids {
			// ReadMeta refuses a header that gives fewer than two bytes a
			// record carrying an id, so no decoder sizes its id bitset past
			// the table it reads.
			if int64(n) > int64(len(data))/2 {
				return
			}
			version = 4
		}
		if v5 {
			version, shift = 5, 3
		}
		meta := Meta{Version: version, N: n, Arcs: arcs, NtBytes: int64(len(data)), EtBytes: etBytes, IDOrder: !ids}
		d := newVarintRecords(tally{path: "fuzz.nt", meta: meta, codec: codec})
		var (
			got    []list
			gotIDs []uint32
		)
		keep := func(v uint32, l list) error {
			if l.off < 0 || l.size < 0 || l.off+l.size > etBytes {
				t.Fatalf("node %d's list [%d,+%d) lies outside the %d-byte edge table", v, l.off, l.size, etBytes)
			}
			got, gotIDs = append(got, l), append(gotIDs, v)
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

		// The reference: each varint refused unless it is the shortest
		// encoding of its value, a record's below 2^34 (2^35), an id's in
		// five bytes at most.
		var (
			want       []list
			wantIDs    []uint32
			off, total int64
			ok         = true
			rest       = table
			id         = int64(-1)
			seen       = map[int64]bool{}
		)
		for p := uint32(0); ok && p < n; p++ {
			if ids {
				x, k := binary.Varint(rest)
				ok = k > 0 && k <= maxRecordLen && k == len(binary.AppendVarint(nil, x))
				if !ok {
					break
				}
				rest, id = rest[k:], id+x
				ok = id >= 0 && id < int64(n) && !seen[id]
				seen[id] = true
			} else {
				id++
			}
			if !ok {
				break
			}
			shortest := func() (uint64, bool) {
				x, k := binary.Uvarint(rest)
				if k <= 0 || k != len(binary.AppendUvarint(nil, x)) {
					return 0, false
				}
				rest = rest[k:]
				return x, true
			}
			x, shortOK := shortest()
			ok = shortOK && x < 1<<(32+shift)
			if !ok {
				break
			}
			tag := x & (1<<shift - 1)
			l := list{off: off, deg: uint32(x >> shift), w: uint8(tag) + 1}
			switch {
			case tag == 4:
				var excess uint64
				excess, ok = shortest()
				ok = ok && l.deg > 0 && excess <= 3*uint64(l.deg)
				l.w, l.size = groupVarint, int64(l.deg)+(int64(l.deg)+3)/4+int64(excess)
			case tag > 4:
				ok = false
			default:
				ok = l.deg > 1 || int64(l.w) == codec.idw
				l.size = codec.idw + int64(l.w)*(int64(l.deg)-1)
			}
			off += l.size
			total += int64(l.deg)
			ok = ok && off <= etBytes
			want, wantIDs = append(want, l), append(wantIDs, uint32(id))
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
		prev := int64(-1)
		for i, l := range got {
			if l != want[i] || gotIDs[i] != wantIDs[i] {
				t.Fatalf("record %d: decoded node %d %+v, want node %d %+v", i, gotIDs[i], l, wantIDs[i], want[i])
			}
			if ids {
				enc = binary.AppendVarint(enc, int64(gotIDs[i])-prev)
				prev = int64(gotIDs[i])
			}
			if v5 {
				enc = appendRecord(enc, l)
			} else {
				enc = binary.AppendUvarint(enc, uint64(l.deg)<<2|uint64(l.w-1))
			}
		}
		if string(enc) != string(table) {
			t.Fatalf("the lists re-encode to %x, not %x", enc, table)
		}
	})
}
