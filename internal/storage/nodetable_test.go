package storage

import (
	"encoding/binary"
	"testing"
)

// FuzzNodeTableDecode hands the node-table decoder of version 3, or of
// version 4 when ids is set, arbitrary bytes as a whole table, with a
// node count, a first-id width and the header's edge-table size and arc
// count, fed in pieces of three bytes so records straddle them. Whatever
// it is given it never panics, never reads past the table (the slice has
// no capacity beyond it) and places every list inside the edge table. It
// accepts exactly what a reference decoder built on encoding/binary
// accepts: n records and nothing after them, each a shortest uvarint of
// at most 34 bits, led in version 4 by a shortest varint of at most five
// bytes whose sum with the id before it (−1 before the first) is an id
// below n met for the first time; each list of at most one id at width
// idw; the lengths adding up to the edge table and the degrees to the arc
// count. An overlong or truncated varint, a width other than idw for a
// list of at most one id, an id out of range or repeated, either sum off
// or trailing bytes are refused. The lists it accepts are the reference's,
// with the reference's ids, one after another, and re-encode to identical
// bytes.
func FuzzNodeTableDecode(f *testing.F) {
	f.Add([]byte{0x09, 0x08, 0x04}, uint32(3), uint8(0), int64(6), int64(5), false)
	f.Add([]byte{0x82, 0x01, 0x02}, uint32(2), uint8(2), int64(96), int64(32), false)
	f.Add([]byte{0x80, 0x00}, uint32(1), uint8(0), int64(0), int64(0), false)
	f.Add([]byte{0x08, 0x04}, uint32(1), uint8(0), int64(2), int64(2), false)
	f.Add([]byte{0x04, 0x09, 0x03, 0x08, 0x01, 0x04}, uint32(3), uint8(0), int64(6), int64(5), true)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, idw uint8, etBytes, arcs int64, ids bool) {
		codec := listCodec{n: n, idw: int64(idw%4 + 1)}
		version := 3
		if ids {
			// ReadMeta refuses a version-4 header that gives fewer than two
			// bytes a record, so no decoder sizes its id bitset past the
			// table it reads.
			if int64(n) > int64(len(data))/2 {
				return
			}
			version = 4
		}
		meta := Meta{Version: version, N: n, Arcs: arcs, NtBytes: int64(len(data)), EtBytes: etBytes}
		d := newVarintRecords(tally{path: "fuzz.nt", meta: meta, codec: codec})
		var (
			got    []list
			gotIDs []uint32
		)
		keep := func(v uint32, l list) error {
			if l.off < 0 || l.off+codec.length(l.deg, l.w) > etBytes {
				t.Fatalf("node %d's list [%d,+%d) lies outside the %d-byte edge table", v, l.off, codec.length(l.deg, l.w), etBytes)
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
		// encoding of its value, a record's below 2^34, an id's in five
		// bytes at most.
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
			enc = appendRecord(enc, l.deg, l.w)
		}
		if string(enc) != string(table) {
			t.Fatalf("the lists re-encode to %x, not %x", enc, table)
		}
	})
}
