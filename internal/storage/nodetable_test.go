package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"kcore/internal/stats"
)

// FuzzNodeTableDecode hands the node-table decoder arbitrary bytes as a
// whole table, with a node count, a first-id width (idw%4 + 1) and the
// header's edge-table size and arc count, read from a file of one-byte
// blocks, FlushBlocks of them at a time, so records straddle the reads:
// format version 7 when rice is set and 6 when it is not, its records led
// by ids when ids is. Whatever it is given it never panics, never reads
// past the table and places every list inside the edge table. It accepts
// exactly what a reference decoder built on encoding/binary accepts: n
// records and nothing after them, each a shortest uvarint of at most five
// bytes, led when ids is set by a shortest varint of at most five bytes
// whose sum with the id before it (−1 before the first) is an id below n
// met for the first time; a form of 0 to 3 (a gap width) or 4 (the
// variable form, for a list of at least one id, followed by a shortest
// uvarint of at most 4·deg), and in version 7 a form of 5 (the Rice form,
// for a list of at least one id, followed by a shortest uvarint x<<5 | k,
// x at most ⌈deg/4⌉); each fixed-width list of at most one id at width
// idw; the lengths adding up to the edge table and the degrees to the arc
// count. An overlong or truncated varint, a width other than idw for a
// list of at most one id, a form past 4 (past 5 in version 7), an empty
// variable-form or Rice list or an excess past its bound, an id out of
// range or repeated, either sum off or trailing bytes are refused. The
// lists it accepts are the reference's, with the reference's ids, one
// after another, and re-encode to identical bytes. A named seed's v4-,
// v5-, v6- or v7- prefix is the version that brought in what it tests
// (ids in records; the three-bit form and the variable form's excess;
// uvarints; Rice); every seed is a version-6 or -7 table.
func FuzzNodeTableDecode(f *testing.F) {
	f.Add([]byte{0x11, 0x10, 0x08}, uint32(3), uint8(0), int64(6), int64(5), false, false)
	f.Add([]byte{0x82, 0x02, 0x02}, uint32(2), uint8(2), int64(96), int64(32), false, false)
	f.Add([]byte{0x80, 0x00}, uint32(1), uint8(0), int64(0), int64(0), false, false)
	f.Add([]byte{0x10, 0x04}, uint32(1), uint8(0), int64(2), int64(2), false, false)
	f.Add([]byte{0x04, 0x11, 0x03, 0x10, 0x01, 0x08}, uint32(3), uint8(0), int64(6), int64(5), true, false)
	f.Add([]byte{0x2c, 0x03, 0x08, 0x00}, uint32(3), uint8(2), int64(11), int64(6), false, false)
	f.Add([]byte{0x2c, 0x03, 0x08, 0x00}, uint32(3), uint8(2), int64(11), int64(6), false, true)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, idw uint8, etBytes, arcs int64, ids, rice bool) {
		codec := listCodec{n: n, idw: int64(idw%4 + 1), rc: rice}
		version := 6
		if rice {
			version = 7
		}
		// ReadMeta refuses a header that gives fewer than two bytes a
		// record carrying an id, so no decoder sizes its id bitset past
		// the table it reads.
		if ids && int64(n) > int64(len(data))/2 {
			return
		}
		meta := Meta{Version: version, N: n, Arcs: arcs, NtBytes: int64(len(data)), EtBytes: etBytes, IDOrder: !ids}
		g := &Graph{meta: meta, codec: codec}
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
		path := filepath.Join(t.TempDir(), "fuzz.nt")
		if err := os.WriteFile(path, table, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path, nil, stats.NewIOCounter(1))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		err = g.decodeNodes(r, keep)

		// The reference: each varint refused unless it is the shortest
		// encoding of its value in five bytes at most; a variable-form
		// list's excess at most 4 bytes a value; a Rice list's at most
		// ⌈deg/4⌉ bytes past ⌈deg·(1+k)/8⌉.
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
				if k <= 0 || k > maxRecordLen || k != len(binary.AppendUvarint(nil, x)) {
					return 0, false
				}
				rest = rest[k:]
				return x, true
			}
			var x uint64
			if x, ok = shortest(); !ok {
				break
			}
			tag := x & 7
			l := list{off: off, deg: uint32(x >> 3), w: uint8(tag) + 1}
			switch {
			case tag == 4:
				var excess uint64
				excess, ok = shortest()
				ok = ok && l.deg > 0 && excess <= 4*uint64(l.deg)
				l.w, l.size = varForm, int64(l.deg)+int64(excess)
			case tag == 5 && version == 7:
				var x uint64
				x, ok = shortest()
				k := int64(x & 31)
				ok = ok && l.deg > 0 && x>>5 <= (uint64(l.deg)+3)/4
				l.w, l.size = uint8(32+k), (int64(l.deg)*(1+k)+7)/8+int64(x>>5)
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
			enc = codec.appendRecord(enc, l)
		}
		if string(enc) != string(table) {
			t.Fatalf("the lists re-encode to %x, not %x", enc, table)
		}
	})
}
