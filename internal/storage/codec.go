package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The list codec. A node's sorted list u1 < u2 < … < ud is stored in one
// of two forms.
//
// The fixed-width form (format versions 2 to 5) is u1 in idw bytes, idw
// the byte width of n−1 for the whole graph, then the d−1 gaps u(i+1) −
// u(i), each at least 1, as little-endian integers of w bytes, w ∈
// {1,2,3,4} the smallest width that holds the list's largest gap. An
// empty list takes no bytes. A list of degree d spans idw + w·(d−1)
// bytes: a node record from version 3 on gives d and w, so the lengths
// place every list; a version-2 table stores w nowhere, and the byte
// offsets of its node records, which tile the edge table, give it back
// (listCodec.width), a length of no such form refused. Version-1 tables
// read through the same codec with idw = w = 4 and absolute ids in place
// of gaps.
//
// The group-varint form (version 5) stores the d values u1, u2 − u1, …,
// ud − u(d−1) in groups of four: a control byte whose bits 2j and 2j+1
// hold the byte length of the group's value j, minus one, then the
// values, little-endian, each in the fewest bytes that hold it. The last
// group holds d mod 4 values when that is not 0, the control bits of its
// missing values zero. A list of degree d spans d + ⌈d/4⌉ bytes and as
// many more as its values take beyond one byte each; a version-5 node
// record gives d and that excess. Version 5 stores each list in the
// group-varint form when that is strictly shorter than its fixed-width
// form, and in the fixed-width form otherwise, so every list has exactly
// one encoding, which the decoder holds it to.
//
// Gap coding is WebGraph's (Boldi and Vigna, WWW'04); the fixed width
// per list is this tree's, group varint Dean's (WSDM'09). A uvarint per
// value would take fewer bytes still (rmat17: 1,050 edge-table blocks,
// against 1,147 for version 5 and 1,416 for fixed widths), but a
// prototype of it spent about 25% more time per decomposition on its
// per-byte branch. Group varint has none: decoding every rmat17 list
// takes 9.3 ms against 6.7 ms at fixed widths (BenchmarkListDecode, the
// fastest of twelve alternating runs on a 2-core x86-64 VM). So each
// fixed-width list takes one width and each width one branch-free loop,
// and a group-varint group is decoded through offset and mask tables
// indexed by its control byte, with no branch on its values.

// listCodec is how one graph's lists are laid out.
type listCodec struct {
	n   uint32 // every id is below n
	idw int64  // bytes of a list's first id
	abs bool   // version 1: every id absolute, idw = w = 4
	gv  bool   // version 5: a list is in the shorter of the two forms
}

// groupVarint is list.w of a list in the group-varint form.
const groupVarint = 0

// codecOf reports the codec of the tables a header describes.
func codecOf(m Meta) listCodec {
	if m.Version == 1 {
		return listCodec{n: m.N, idw: 4, abs: true}
	}
	return listCodec{n: m.N, idw: int64(byteWidth(max(m.N, 1) - 1)), gv: m.Version >= 5}
}

// byteWidth reports the fewest bytes, 1 to 4, that hold x.
func byteWidth(x uint32) uint8 {
	return uint8(bits.Len32(x|1)+7) / 8
}

// length reports the byte length of a fixed-width list of deg ids at gap
// width w. A list of at most one id has w = idw, so the one formula holds
// for every degree: an empty list takes idw − idw = 0 bytes.
func (c listCodec) length(deg uint32, w uint8) int64 {
	return c.idw + int64(w)*(int64(deg)-1)
}

// gvMin is the byte length of a group-varint list of deg values each
// stored in one byte: the least a list of deg ids can take in that form.
func gvMin(deg uint32) int64 {
	return int64(deg) + (int64(deg)+3)/4
}

// width recovers the gap width of a fixed-width list of deg ids that
// spans n bytes (idw for lists of at most one id), and whether n is of
// the form idw + w·(deg−1) for a width the codec writes.
func (c listCodec) width(n int64, deg uint32) (uint8, bool) {
	if deg <= 1 {
		return uint8(c.idw), n == c.length(deg, uint8(c.idw))
	}
	rest, gaps := n-c.idw, int64(deg)-1
	if rest < gaps || rest > 4*gaps || rest%gaps != 0 || (c.abs && rest != 4*gaps) {
		return 0, false
	}
	return uint8(rest / gaps), true
}

// form reports how the codec stores the list nbrs, sorted ascending: in
// the fixed-width form at gap width w (idw for a list of at most one
// id), or in the group-varint form, w = groupVarint; and its byte length.
func (c listCodec) form(nbrs []uint32) (w uint8, size int64) {
	d := uint32(len(nbrs))
	if d == 0 {
		return uint8(c.idw), 0
	}
	// The group-varint length: each value's bytes past its first, the
	// first value being u1 itself.
	gv := gvMin(d) + int64(byteWidth(nbrs[0])) - 1
	var maxGap uint32
	for i := 1; i < len(nbrs); i++ {
		g := nbrs[i] - nbrs[i-1]
		gv += int64(byteWidth(g)) - 1
		maxGap = max(maxGap, g)
	}
	w = uint8(c.idw) // no gap is stored; the width is the canonical one
	if d > 1 {
		w = byteWidth(maxGap)
	}
	if fixed := c.length(d, w); !c.gv || gv >= fixed {
		return w, fixed
	}
	return groupVarint, gv
}

// encode appends the list nbrs, sorted ascending, to dst, and reports
// its form: its gap width (idw for a list of at most one id), or
// groupVarint.
func (c listCodec) encode(dst []byte, nbrs []uint32) ([]byte, uint8) {
	w, size := c.form(nbrs)
	if len(nbrs) == 0 {
		return dst, w
	}
	n := len(dst)
	end := n + int(size)
	// Every value is stored as 4 bytes and the next one overwrites what
	// its length drops, so the slice runs 4 bytes past the list until the
	// end.
	dst = slices.Grow(dst, end+4-n)[:end+4]
	if w == groupVarint {
		prev := uint32(0)
		for i := 0; i < len(nbrs); i += 4 {
			ctl := n
			dst[ctl] = 0
			n++
			for j, u := range nbrs[i:min(i+4, len(nbrs))] {
				k := byteWidth(u - prev)
				dst[ctl] |= (k - 1) << (2 * j)
				binary.LittleEndian.PutUint32(dst[n:], u-prev)
				n += int(k)
				prev = u
			}
		}
		return dst[:end], w
	}
	idw := int(c.idw)
	binary.LittleEndian.PutUint32(dst[n:], nbrs[0])
	n += idw
	for i := 1; i < len(nbrs); i++ {
		binary.LittleEndian.PutUint32(dst[n:], nbrs[i]-nbrs[i-1])
		n += int(w)
	}
	return dst[:end], w
}

// decode reads the deg ids of the list stored as raw in form w — the
// whole list and nothing more — into buf (grown geometrically if short)
// and returns them. A list that is not strictly ascending, holds an id ≥
// n, or is not in the one form and of the one length the codec gives it
// is an error: headers from older builders carry no checksums, so the
// bytes may be anything.
func (c listCodec) decode(raw []byte, deg uint32, w uint8, buf []uint32) ([]uint32, error) {
	if w == groupVarint && c.gv && deg > 0 {
		return c.decodeGroups(raw, deg, buf)
	}
	if lw, ok := c.width(int64(len(raw)), deg); !ok || lw != w {
		return nil, fmt.Errorf("%d bytes are no list of %d ids at gap width %d", len(raw), deg, w)
	}
	buf = slices.Grow(buf[:0], int(deg))[:deg]
	if deg == 0 {
		return buf, nil
	}
	// minGap stays 1 unless some id fails to exceed the one before it;
	// min is a conditional move, so no loop below branches per arc on
	// the data.
	var last, minGap uint64 = 0, 1
	if c.abs {
		prev, step := int64(-1), int64(1)
		for i := range buf {
			id := int64(binary.LittleEndian.Uint32(raw[4*i:]))
			buf[i] = uint32(id)
			step = min(step, id-prev)
			prev = id
		}
		last, minGap = uint64(prev), uint64(max(step, 0))
	} else {
		id := uint64(raw[0])
		for i := int64(1); i < c.idw; i++ {
			id |= uint64(raw[i]) << (8 * i)
		}
		buf[0] = uint32(id)
		gaps, out := raw[c.idw:], buf[1:]
		switch w {
		case 1:
			gaps = gaps[:len(out)]
			for i, g := range gaps {
				id += uint64(g)
				minGap = min(minGap, uint64(g))
				out[i] = uint32(id)
			}
		case 2:
			gaps = gaps[:2*len(out)]
			for i := range out {
				p := gaps[2*i : 2*i+2 : 2*i+2]
				g := uint64(p[0]) | uint64(p[1])<<8
				id += g
				minGap = min(minGap, g)
				out[i] = uint32(id)
			}
		case 3:
			gaps = gaps[:3*len(out)]
			for i := range out {
				p := gaps[3*i : 3*i+3 : 3*i+3]
				g := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16
				id += g
				minGap = min(minGap, g)
				out[i] = uint32(id)
			}
		case 4:
			gaps = gaps[:4*len(out)]
			for i := range out {
				g := uint64(binary.LittleEndian.Uint32(gaps[4*i : 4*i+4 : 4*i+4]))
				id += g
				minGap = min(minGap, g)
				out[i] = uint32(id)
			}
		}
		last = id
	}
	if err := c.check(deg, last, minGap); err != nil {
		return nil, err
	}
	if c.gv && !c.fixedCanonical(raw, buf, w) {
		return nil, fmt.Errorf("list of %d ids stored at gap width %d, not in its one form", deg, w)
	}
	return buf, nil
}

// fixedCanonical reports whether the fixed-width list raw of the ids
// nbrs, at gap width w, is in its one form: at the least width that holds
// its gaps, and no longer than its group-varint form. That form's length
// is gvMin plus the bytes past one that the first id and each gap take:
// none a gap at width 1 (and for a list of one id), one a gap whose high
// byte is set at width 2, which the stored bytes give without a pass over
// the ids; wider lists, rare, are measured from the ids.
func (c listCodec) fixedCanonical(raw []byte, nbrs []uint32, w uint8) bool {
	deg := uint32(len(nbrs))
	gv := gvMin(deg) + int64(byteWidth(nbrs[0])) - 1
	switch {
	case deg <= 1 || w == 1:
		return gv >= int64(len(raw))
	case w == 2:
		var high int64
		for i := c.idw + 1; i < int64(len(raw)); i += 2 {
			high += (int64(raw[i]) + 255) >> 8
		}
		return high > 0 && gv+high >= int64(len(raw))
	}
	fw, size := c.form(nbrs)
	return fw == w && size == int64(len(raw))
}

// check refuses a decoded list whose smallest gap is 0 or whose last id
// is outside [0, n).
func (c listCodec) check(deg uint32, last, minGap uint64) error {
	if minGap == 0 {
		return fmt.Errorf("list of %d ids not strictly ascending", deg)
	}
	if last >= uint64(c.n) {
		return fmt.Errorf("list of %d ids holds id %d, outside [0,%d)", deg, last, c.n)
	}
	return nil
}

// gvGroup is what a control byte says of its group of four values:
// where each starts, counting the control byte as byte 0; the group's
// length; the 4-byte load mask of each value's length and the least value
// of that length, 1 for one byte (a gap is at least 1); and the set of
// its values' length codes, as bits 1<<code, of all four and of the last
// three.
type gvGroup struct {
	at    [4]uint8
	size  uint8
	codes [2]uint8
	mask  [4]uint32
	floor [4]uint32
}

var gvGroups [256]gvGroup

func init() {
	for i := range gvOnes {
		gvOnes[i] = 1
	}
	for c := range gvGroups {
		g := &gvGroups[c]
		g.size = 1
		for j := range 4 {
			k := c >> (2 * j) & 3
			g.at[j] = g.size
			g.size += uint8(k) + 1
			g.mask[j] = 1<<(8*(k+1)) - 1
			g.floor[j] = 1 << (8 * k) // 1 for one byte: a gap is at least 1
			g.codes[0] |= 1 << k
			if j > 0 {
				g.codes[1] |= 1 << k
			}
		}
	}
}

// gvOnes is what a list's last bytes are copied over to be decoded:
// ones, which the loads of a short last group's missing values read as
// gaps of 1.
var gvOnes [40]byte

// decodeGroups decodes the group-varint list raw of deg > 0 ids into
// buf[:deg], whose capacity holds 3 more, and returns buf[:deg]. Each
// group is read as 20 bytes: in place while 20 are left in raw, and after
// that from a copy of the rest, fewer than 20 bytes, padded with ones, so
// nothing past the list is read. A short last group's missing values
// load as gaps of 1 into buf's spare capacity, and their lengths, whose
// control bits must be 0, count a byte each, taken off at the end. A list
// is refused unless its control bytes account for its length exactly,
// every gap is at least 1, every value is stored in the fewest bytes that
// hold it, its last id is below n, and the form is strictly shorter than
// the fixed-width one: every check is an accumulation without a branch,
// tested once the groups are done.
func (c listCodec) decodeGroups(raw []byte, deg uint32, buf []uint32) ([]uint32, error) {
	if int64(len(raw)) < gvMin(deg) {
		return nil, fmt.Errorf("%d bytes are no group-varint list of %d ids, which takes at least %d", len(raw), deg, gvMin(deg))
	}
	var (
		// under has its top bit set once some value is below the floor of
		// its length: a zero gap, or a value stored wider than it needs.
		under uint64
		codes uint8 // the gaps' length codes, a bit each
		id    uint64
		ctl   byte // the last group's control byte
		pad   [40]byte
	)
	buf = slices.Grow(buf[:0], int(deg)+3)[:deg+3]
	// out is where the next group's ids go, rest where its bytes start:
	// in raw, or in the padded copy of raw's last bytes from raw[tail:] on.
	out, rest, tail := buf, raw, -1
	for {
		for len(out) > 3 && len(rest) >= 20 {
			q, o := (*[20]byte)(rest), (*[4]uint32)(out)
			ctl = q[0]
			g := &gvGroups[ctl]
			// The list's first value is its first id, which may be 0 and is
			// no gap: the first group takes floor 0 for it and leaves its
			// length out of codes.
			first := uint32(0)
			if len(out) == len(buf) {
				first = 1
			}
			v := binary.LittleEndian.Uint32(q[1:]) & g.mask[0]
			under |= uint64(v) - uint64(g.floor[0]&^first)
			id += uint64(v)
			o[0] = uint32(id)
			v = binary.LittleEndian.Uint32(q[g.at[1]&15:]) & g.mask[1]
			under |= uint64(v) - uint64(g.floor[1])
			id += uint64(v)
			o[1] = uint32(id)
			v = binary.LittleEndian.Uint32(q[g.at[2]&15:]) & g.mask[2]
			under |= uint64(v) - uint64(g.floor[2])
			id += uint64(v)
			o[2] = uint32(id)
			v = binary.LittleEndian.Uint32(q[g.at[3]&15:]) & g.mask[3]
			under |= uint64(v) - uint64(g.floor[3])
			id += uint64(v)
			o[3] = uint32(id)
			codes |= g.codes[first]
			rest, out = rest[g.size:], out[4:]
		}
		if tail >= 0 || len(out) <= 3 {
			break
		}
		// Fewer than 20 bytes are left: the rest of the groups are read
		// from a copy padded with ones.
		tail = len(raw) - len(rest)
		pad = gvOnes
		copy(pad[:], rest)
		rest = pad[:]
	}
	used := len(raw) - len(rest)
	if tail >= 0 {
		used = tail + len(pad) - len(rest)
	}
	missing := 3 - min(uint32(len(out)), 3) // a short last group's values
	if used -= int(missing); len(out) > 3 || used != len(raw) {
		return nil, fmt.Errorf("%d bytes are no group-varint list of %d ids: its control bytes account for %d", len(raw), deg, used)
	}
	if ctl>>(2*(4-missing)) != 0 {
		return nil, fmt.Errorf("group-varint list of %d ids: its last group's control byte %#02x gives lengths past its %d values", deg, ctl, 4-missing)
	}
	if under>>63 != 0 {
		return nil, fmt.Errorf("group-varint list of %d ids holds a zero gap or a value stored wider than it needs", deg)
	}
	last := id - uint64(missing)
	if last >= uint64(c.n) {
		return nil, fmt.Errorf("list of %d ids holds id %d, outside [0,%d)", deg, last, c.n)
	}
	w := uint8(c.idw)
	if deg > 1 {
		w = uint8(bits.Len8(codes))
	}
	if fixed := c.length(deg, w); int64(len(raw)) >= fixed {
		return nil, fmt.Errorf("group-varint list of %d ids takes %d bytes, its fixed-width form %d", deg, len(raw), fixed)
	}
	return buf[:deg], nil
}
