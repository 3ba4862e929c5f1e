package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The list codec. A node's sorted list u1 < u2 < … < ud is stored in one
// of three forms; format versions 6 and 7, the two this tree reads,
// differ only in that version 6 has no Rice form.
//
// The fixed-width form is u1 in idw bytes, idw the byte width of n−1 for
// the whole graph, then the d−1 gaps u(i+1) − u(i), each at least 1, as
// little-endian integers of w bytes, w ∈ {1,2,3,4} the smallest width
// that holds the list's largest gap. An empty list takes no bytes. A list
// of degree d spans idw + w·(d−1) bytes, and its node record gives d and
// w, so the lengths place every list.
//
// The variable form stores the d values u1, u2 − u1, …, ud − u(d−1) each
// as a uvarint: seven bits a byte, low groups first, the high bit of
// every byte but the value's last set; at most five bytes, since a value
// is below 2^32. A list spans d bytes and as many more as its values take
// beyond one each, which its node record gives.
//
// The Rice form (version 7) stores the d values x1 = u1 and x(i+1) =
// u(i+1) − u(i) − 1 as a bit string, packed from each byte's lowest bit
// up: each value's quotient x >> k in unary (that many 0 bits, then a 1),
// then its k low bits, lowest first, the last byte's unused bits 0. The
// list fixes k itself, k = ⌊log₂((ud + 1)/d)⌋, at most 31 as every id is
// below 2^32 − 1: Golomb's code (IEEE Trans. IT, 1966) in Rice's
// power-of-two form (JPL, 1979), which spends about 2 + log₂ of the mean
// gap bits a value where a uvarint spends whole bytes. A list spans
// ⌈(d·(1+k) + Σ x >> k)/8⌉ bytes; its node record gives k and the bytes
// beyond ⌈d·(1+k)/8⌉, at most ⌈d/4⌉ since the quotients add up to less
// than 2d under that k.
//
// Each list is stored in the shortest of its version's forms, a tie going
// to the earlier of fixed width, the variable form and Rice, so every list
// has exactly one encoding, which the decoder holds it to, and no list is
// longer in version 7 than in version 6. Each form wins somewhere, so none
// replaces another: uvarints where gaps are a byte or two and uneven, Rice
// where they are wider (rmat17 in Build's order: 942 edge-table blocks
// against 1,047 for version 6), and fixed width where gaps are all alike,
// as on a small-world lattice, whose tables Rice shortens by 0.3%
// (TestVersion7NeverLongerThanVersion6) and would lengthen on its own.
// The Builder writes version 7; version 6 is read in place until its
// first rewrite.
//
// Gap coding is WebGraph's (Boldi and Vigna, WWW'04); the fixed width
// per list is this tree's, and the uvarint decoder follows masked VByte
// (Plaisance, Kurz and Lemire, Vectorized VByte Decoding, 2015), with
// 8-byte words for vectors. Decoded a byte at a time, uvarints branch on
// every byte's continuation bit, which cost a prototype about 25% of a
// decomposition. decodeUvarints does not look at single bytes: it reads 8
// bytes as one word, gathers their 8 continuation bits with one multiply,
// and indexes a table by them that gives where each of up to four values
// starts and ends; one compaction of the word's 7-bit groups then yields
// all of them, each cut out by two shifts, and no branch depends on a
// value. decodeRice reads 64 bits as one word and takes up to two values
// from it, each by a count of trailing zeros, before it reads the next; it
// takes them as gaps and adds them up after, in a loop that also measures
// the list's other two forms. So each fixed-width list takes one width and
// each width one branch-free loop, and a variable-form or Rice list is
// decoded a word at a time. A fixed-width list is held to its one form by
// comparing it with what form gives its ids (canonical), a uvarint or Rice
// list by its decoder's own checks, and a version-7 uvarint list that
// Rice might shorten by canonical as well.

// listCodec is how one graph's lists are laid out.
type listCodec struct {
	n   uint32 // every id is below n
	idw int64  // bytes of a list's first id
	rc  bool   // version 7: a list may be in the Rice form
}

// varForm is list.w of a list in the variable form, and riceForm + k that
// of a list in the Rice form at parameter k.
const (
	varForm  = 0
	riceForm = 32
)

// codecOf reports the codec of the tables a header describes.
func codecOf(m Meta) listCodec {
	return listCodec{n: m.N, idw: int64(byteWidth(max(m.N, 1) - 1)), rc: m.Version >= 7}
}

// riceK is the Rice parameter of a list of deg > 0 ids whose last is last,
// at least deg − 1: ⌊log₂((last + 1)/deg)⌋, without a division: the
// difference of the two bit lengths, or one less.
func riceK(last uint64, deg uint32) uint8 {
	a := last + 1
	k := bits.Len64(a) - bits.Len32(deg)
	if k > 0 && uint64(deg)<<k > a {
		k--
	}
	return uint8(k)
}

// riceMin is the least byte length of a Rice list of deg ids at parameter
// k, each quotient 0: ⌈deg·(1+k)/8⌉. A node record gives the bytes a list
// takes beyond it, at most ⌈deg/4⌉.
func riceMin(deg uint32, k uint8) int64 {
	return int64((uint64(deg)*(1+uint64(k)) + 7) >> 3)
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

// uvLen reports the bytes of the shortest uvarint of x: 1 to 5, looked up
// by x's bit length, which a division by 7 costs more than (it runs once
// an arc in form and in decodeRice).
func uvLen(x uint32) int64 {
	return int64(uvLens[bits.Len32(x)])
}

// uvLens is uvLen by bit length.
var uvLens = [33]uint8{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5}

// fixed reports whether n bytes are a fixed-width list of deg ids at
// gap width w: w is idw for a list of at most one id and 1 to 4 for a
// longer one, and n is idw + w·(deg−1).
func (c listCodec) fixed(n int64, deg uint32, w uint8) bool {
	if deg <= 1 {
		return w == uint8(c.idw) && n == c.length(deg, w)
	}
	return w >= 1 && w <= 4 && n == c.length(deg, w)
}

// form reports how the codec stores the list nbrs, sorted ascending: in
// the fixed-width form at gap width w (idw for a list of at most one
// id), in the variable form, w = varForm, or in the Rice form, w =
// riceForm + k; and its byte length.
func (c listCodec) form(nbrs []uint32) (w uint8, size int64) {
	d := uint32(len(nbrs))
	if d == 0 {
		return uint8(c.idw), 0
	}
	// The gaps' largest, the uvarint form's length and the Rice form's
	// quotients on the way.
	k := riceK(uint64(nbrs[d-1]), d)
	var maxGap uint32
	vlen, quot := uvLen(nbrs[0]), uint64(nbrs[0])>>k
	for i := 1; i < len(nbrs); i++ {
		g := nbrs[i] - nbrs[i-1]
		maxGap = max(maxGap, g)
		vlen += uvLen(g)
		quot += uint64(g-1) >> k
	}
	w = uint8(c.idw) // no gap is stored; the width is the canonical one
	if d > 1 {
		w = byteWidth(maxGap)
	}
	size = c.length(d, w)
	if vlen < size {
		w, size = varForm, vlen
	}
	if rlen := (int64(d)*(1+int64(k)) + int64(quot) + 7) / 8; c.rc && rlen < size {
		w, size = riceForm+k, rlen
	}
	return w, size
}

// encode appends the list nbrs, sorted ascending, to dst in the form the
// codec gives it, and reports that form: its gap width (idw for a list
// of at most one id), varForm or riceForm + k.
func (c listCodec) encode(dst []byte, nbrs []uint32) ([]byte, uint8) {
	w, size := c.form(nbrs)
	if len(nbrs) == 0 {
		return dst, w
	}
	if w >= riceForm {
		return appendRice(dst, nbrs, w-riceForm, size), w
	}
	if w == varForm {
		prev := uint32(0)
		for _, u := range nbrs {
			dst = binary.AppendUvarint(dst, uint64(u-prev))
			prev = u
		}
		return dst, w
	}
	return c.appendFixed(dst, nbrs, w), w
}

// appendFixed appends the list nbrs to dst in the fixed-width form at
// gap width w (idw for a list of at most one id), which holds its every
// gap.
func (c listCodec) appendFixed(dst []byte, nbrs []uint32, w uint8) []byte {
	if len(nbrs) == 0 {
		return dst
	}
	n := len(dst)
	end := n + int(c.length(uint32(len(nbrs)), w))
	// Every value is stored as 4 bytes and the next one overwrites what
	// its length drops, so the slice runs 4 bytes past the list until the
	// end.
	dst = slices.Grow(dst, end+4-n)[:end+4]
	binary.LittleEndian.PutUint32(dst[n:], nbrs[0])
	n += int(c.idw)
	for i := 1; i < len(nbrs); i++ {
		binary.LittleEndian.PutUint32(dst[n:], nbrs[i]-nbrs[i-1])
		n += int(w)
	}
	return dst[:end]
}

// appendRice appends the list nbrs, at least one id, to dst in the Rice
// form at parameter k, size bytes long. riceStore writes the values whose
// run is at most 24 zeros; the zeros of a longer run are written here, 24
// a store, until 24 or fewer are left for riceStore.
func appendRice(dst []byte, nbrs []uint32, k uint8, size int64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, int(size)+8)[:n+int(size)+8]
	out := dst[n:]
	kk := uint64(k & 31)
	// The pending bits, fewer than 8, and how many; the zeros of the i-th
	// value written; the byte the pending bits start in.
	var acc, nb, done uint64
	at, i := 0, 0
	for {
		i, at, acc, nb = riceStore(out, nbrs, i, kk, done, at, acc, nb)
		if i == len(nbrs) {
			return dst[:n+int(size)]
		}
		prev := ^uint64(0) // the id before the i-th: −1 before the first
		if i > 0 {
			prev = uint64(nbrs[i-1])
		}
		q := (uint64(nbrs[i]) - prev - 1) >> kk
		for done = 0; q-done > 24; done += 24 {
			binary.LittleEndian.PutUint64(out[at:], acc)
			nb += 24
			at, acc, nb = at+int(nb>>3), acc>>(nb&56), nb&7
		}
	}
}

// riceStore writes the values of nbrs from the i-th on in the Rice form
// at parameter k into out from byte at on, after the pending bits acc, nb
// of them, while a value's run, less the done zeros of the i-th already
// written, is at most 24 zeros. Bits gather in acc, the first lowest, and
// each value stores acc's 8 bytes at the byte its bits reached, so no
// byte is appended one at a time: the store's bytes past the pending bits
// are 0, and the next store overwrites them, into the 8 bytes of room
// past the list. It reports the next value and the pending bits. It is a
// leaf, so its variables stay in registers, and every shift count is
// below 64 and masked so, which spares each shift a test of its count.
func riceStore(out []byte, nbrs []uint32, i int, k, done uint64, at int, acc, nb uint64) (int, int, uint64, uint64) {
	mask := uint64(1)<<(k&63) - 1
	prev := ^uint64(0)
	if i > 0 {
		prev = uint64(nbrs[i-1])
	}
	for ; i < len(nbrs); i++ {
		x := uint64(nbrs[i]) - prev - 1
		q := x>>(k&63) - done
		if q > 24 {
			break
		}
		// The run's rest, its 1 and the low bits: at most 24 + 1 + 31
		// bits onto fewer than 8.
		acc |= (x&mask<<1 | 1) << ((q + nb) & 63)
		nb += q + 1 + k
		binary.LittleEndian.PutUint64(out[at:], acc)
		at, acc, nb = at+int(nb>>3), acc>>(nb&56), nb&7
		prev, done = uint64(nbrs[i]), 0
	}
	return i, at, acc, nb
}

// decode reads the deg ids of the list stored as raw in form w — the
// whole list and nothing more — into buf (grown geometrically if short)
// and returns them. A list that is not strictly ascending, holds an id ≥
// n, or is not in the one form and of the one length the codec gives it
// is an error: the bytes may be anything (the open's pass decodes a
// table before checking its checksum; a fuzzer's are). The uvarint
// decoder may read past the list into raw's capacity, never beyond it;
// nothing it reads there decides what it returns.
func (c listCodec) decode(raw []byte, deg uint32, w uint8, buf []uint32) ([]uint32, error) {
	if w >= riceForm && c.rc {
		return c.decodeRice(raw, deg, w-riceForm, buf)
	}
	if w == varForm && deg > 0 {
		return c.decodeUvarints(raw, deg, buf)
	}
	buf, err := c.decodeFixed(raw, deg, w, buf)
	if err != nil {
		return nil, err
	}
	if err := c.canonical(buf, w, len(raw)); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeFixed decodes the fixed-width list raw of deg ids at gap width w
// into buf, grown geometrically if short, and returns buf[:deg]. A list
// is refused unless its length is the one the form gives, its ids are
// strictly ascending and the last is below n; decode holds it to its one
// form as well.
func (c listCodec) decodeFixed(raw []byte, deg uint32, w uint8, buf []uint32) ([]uint32, error) {
	if !c.fixed(int64(len(raw)), deg, w) {
		return nil, fmt.Errorf("%d bytes are no list of %d ids at gap width %d", len(raw), deg, w)
	}
	buf = slices.Grow(buf[:0], int(deg))[:deg]
	if deg == 0 {
		return buf, nil
	}
	// minGap stays 1 unless some id fails to exceed the one before it;
	// min is a conditional move, so no loop below branches per arc on
	// the data.
	var minGap uint64 = 1
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
	if err := c.check(deg, id, minGap); err != nil {
		return nil, err
	}
	return buf, nil
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

// canonical refuses the ids nbrs of a list stored in form w as size
// bytes unless form gives them exactly that form and length: their one
// encoding.
func (c listCodec) canonical(nbrs []uint32, w uint8, size int) error {
	if fw, fsize := c.form(nbrs); fw != w || fsize != int64(size) {
		return fmt.Errorf("list of %d ids stored as %d bytes in form %d, not in its one form: %d bytes in form %d", len(nbrs), size, w, fsize, fw)
	}
	return nil
}

// uvStep is what the continuation bits of 8 bytes say of the uvarints
// that start at the first of them: how many end within the 8 (n, 1 to 4:
// a step takes no more), the bytes those take (size) and the bytes the
// first takes (size1); and, for each, the two shifts that cut its 7-bit
// groups out of the compaction of the 8 bytes' groups (left by hi, right
// by lo) and the least value of its length — 1 for one byte, a gap being
// at least 1, and 2^(7(L−1)) for L bytes, so that a value is in its
// shortest encoding. A missing value is cut out as 0, of least value 0.
// When the first 5 bytes all carry a continuation bit, the first value is
// longer than five: it is cut out as 0 with a least value of 2, which
// refuses it.
type uvStep struct {
	n, size, size1 uint8
	hi, lo         [4]uint8
	floor          [4]uint32
}

var uvSteps [256]uvStep

func init() {
	for i := range uvOnes {
		uvOnes[i] = 1
	}
	for m := range uvSteps {
		s := &uvSteps[m]
		s.lo = [4]uint8{63, 63, 63, 63} // the compaction's top bit is 0
		for at := 0; s.n < 4 && at < 8; {
			k := 0 // the value's bytes before its last
			for at+k < 8 && m>>(at+k)&1 == 1 {
				k++
			}
			if s.n == 0 && k >= 5 {
				s.n, s.size, s.size1, s.floor[0] = 1, 5, 5, 2
				break
			}
			if at+k == 8 || k >= 5 {
				break // it ends past the 8 bytes, or is longer than five
			}
			j, l := s.n, k+1
			s.hi[j], s.lo[j] = uint8(64-7*(at+l)), uint8(64-7*l)
			s.floor[j] = 1 << (7 * k)
			if at += l; j == 0 {
				s.size1 = uint8(l)
			}
			s.n, s.size = j+1, uint8(at)
		}
	}
}

// uvOnes is what a list's last bytes are copied over to be decoded:
// bytes of 1, each a whole uvarint, so the 16 bytes each step reads
// exist.
var uvOnes [32]byte

// continuation gathers the high bits of w's 8 bytes, byte i's to bit i:
// the multiply moves each to the top byte, and no two of its partial
// products meet.
func continuation(w uint64) uint8 {
	return uint8((w & 0x8080808080808080) * 0x0002040810204081 >> 56)
}

// compact packs the low 7 bits of w's 8 bytes, byte i's to bits 7i to
// 7i+6: pairs, then quads, then the two halves.
func compact(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
	w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
	return w&0x000000000fffffff | w>>4&0x00fffffff0000000
}

// decodeUvarints decodes the uvarint list raw of deg > 0 ids into buf,
// grown geometrically if short, and returns buf[:deg]. Each step reads 16
// bytes: 8 whose continuation bits index uvSteps, the rest so that a
// value starting among them may end. It reads in place while 16 bytes are
// left in raw's capacity, and after that from a copy of raw's rest, fewer
// than 16 bytes, padded with uvOnes, so nothing past the capacity is read.
// The first id, which may be 0, is one step, then up to four values a
// step while four or more are wanted, then one a step; so no step reads a
// value past the deg-th, and what lies past the list decides nothing. A
// list is refused unless its values account for its length exactly, each
// in its shortest encoding of at most five bytes, every gap at least 1 and
// below 2^32, its last id is below n, and the form is strictly shorter
// than the fixed-width one and no longer than the Rice form where the
// codec has it: every check on a value is an accumulation without a
// branch, tested once the list is done.
func (c listCodec) decodeUvarints(raw []byte, deg uint32, buf []uint32) ([]uint32, error) {
	if int64(len(raw)) < int64(deg) {
		return nil, fmt.Errorf("%d bytes are no uvarint list of %d ids, which takes at least %d", len(raw), deg, deg)
	}
	var (
		// under has its top bit set once some value is below the least of
		// its length: a zero gap, a value stored longer than it needs, or
		// one of more than five bytes.
		under uint64
		gaps  uint64 // the gaps ORed: their largest's bit length, and none ≥ 2^32
		id    uint64
		pad   [32]byte
	)
	buf = slices.Grow(buf[:0], int(deg))[:deg]
	// src is where the values are read: raw with its capacity, or pad from
	// raw[tail:] on; at is where the next value starts in it, i how many
	// ids are decoded.
	src, at, tail, i := raw[:cap(raw)], 0, -1, 0
	for i < len(buf) {
		if at+16 > len(src) {
			if tail >= 0 || at > len(raw) {
				break
			}
			tail = at
			pad = uvOnes
			copy(pad[:], raw[at:])
			src, at = pad[:], 0
			continue
		}
		if i == 0 {
			w := binary.LittleEndian.Uint64(src[at:])
			s := &uvSteps[continuation(w)]
			v := compact(w) << (s.hi[0] & 63) >> (s.lo[0] & 63)
			under |= v - uint64(s.floor[0]&^1) // the first id may be 0
			id, buf[0] = v, uint32(v)
			at, i = at+int(s.size1), 1
		}
		for len(buf)-i >= 4 && at+16 <= len(src) {
			w := binary.LittleEndian.Uint64(src[at:])
			s := &uvSteps[continuation(w)]
			x, o := compact(w), (*[4]uint32)(buf[i:])
			v := x << (s.hi[0] & 63) >> (s.lo[0] & 63)
			under |= v - uint64(s.floor[0])
			gaps |= v
			id += v
			o[0] = uint32(id)
			v = x << (s.hi[1] & 63) >> (s.lo[1] & 63)
			under |= v - uint64(s.floor[1])
			gaps |= v
			id += v
			o[1] = uint32(id)
			v = x << (s.hi[2] & 63) >> (s.lo[2] & 63)
			under |= v - uint64(s.floor[2])
			gaps |= v
			id += v
			o[2] = uint32(id)
			v = x << (s.hi[3] & 63) >> (s.lo[3] & 63)
			under |= v - uint64(s.floor[3])
			gaps |= v
			id += v
			o[3] = uint32(id)
			at, i = at+int(s.size), i+int(s.n)
		}
		for i < len(buf) && at+16 <= len(src) {
			w := binary.LittleEndian.Uint64(src[at:])
			s := &uvSteps[continuation(w)]
			v := compact(w) << (s.hi[0] & 63) >> (s.lo[0] & 63)
			under |= v - uint64(s.floor[0])
			gaps |= v
			id += v
			buf[i] = uint32(id)
			at, i = at+int(s.size1), i+1
		}
	}
	used := at
	if tail >= 0 {
		used += tail
	}
	if i < len(buf) || used != len(raw) {
		return nil, fmt.Errorf("%d bytes are no uvarint list of %d ids", len(raw), deg)
	}
	if under>>63 != 0 {
		return nil, fmt.Errorf("uvarint list of %d ids holds a zero gap, or a value longer than its shortest encoding or than five bytes", deg)
	}
	if gaps>>32 != 0 || id >= uint64(c.n) {
		return nil, fmt.Errorf("list of %d ids holds an id outside [0,%d)", deg, c.n)
	}
	w := uint8(c.idw)
	if deg > 1 {
		w = byteWidth(uint32(gaps))
	}
	if fixed := c.length(deg, w); int64(len(raw)) >= fixed {
		return nil, fmt.Errorf("uvarint list of %d ids takes %d bytes, its fixed-width form %d", deg, len(raw), fixed)
	}
	// Rice takes at least riceMin bytes, so only a list longer than that
	// needs the measure: every one whose k is below 7, as a list of
	// uvarints takes at least deg bytes.
	if c.rc && riceMin(deg, riceK(id, deg)) < int64(len(raw)) {
		if err := c.canonical(buf, varForm, len(raw)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeRice decodes the Rice list raw of deg ids at parameter k into buf,
// grown geometrically if short, and returns buf[:deg]. It decodes the
// values as gaps first, x + 1 each (the first id plus 1 for the first),
// then adds them up. riceRun takes the values whose bits one load holds;
// any it leaves (its run too long for a word, or in the last 8 bytes of
// raw's capacity) is read a word of zeros at a time through tailWord, so
// nothing past the capacity is read. No step reads past the deg-th
// value's bits, so what lies past the list decides nothing once those end
// inside it. A list is refused unless its bits hold deg values of at
// least 1 + k bits each (checked before buf is sized), no value runs past
// them, every id is below n (the gaps and every long run ORed, so no sum
// passes 2^64 unseen; an empty list's last id stays −1, outside every
// range), no byte is left over and the last one's spare bits are 0, k is
// the one its ids give (riceK, so never past 31), and the list is
// strictly shorter than its fixed-width and its uvarint form, which the
// adding up measures: the gaps ORed give the fixed width, and each
// value's uvLen the uvarints' bytes.
func (c listCodec) decodeRice(raw []byte, deg uint32, k uint8, buf []uint32) ([]uint32, error) {
	total := 8 * uint64(len(raw)) // the list's bits
	if least := riceMin(deg, k); int64(len(raw)) < least {
		return nil, fmt.Errorf("%d bytes are no Rice list of %d ids at parameter %d, which takes at least %d", len(raw), deg, k, least)
	}
	buf = slices.Grow(buf[:0], int(deg))[:deg]
	src, kk := raw[:cap(raw)], uint64(k)
	var (
		pos uint64 // where the next value starts, in bits
		ors uint64 // the gaps and the long runs ORed: none ≥ 2^32
		i   int
	)
	for i < len(buf) {
		j, p, o := riceRun(src, buf[i:], kk, pos)
		i, pos, ors = i+j, p, ors|o
		if i == len(buf) {
			break
		}
		// A word of zeros at a time, until the value's 1 or past the
		// list's end, then the low bits.
		q := uint64(0)
		for pos <= total {
			sh := pos & 7
			word := tailWord(src, pos>>3) >> sh
			if z := uint64(bits.TrailingZeros64(word)); z < 64-sh {
				q, pos = q+z, pos+z+1
				break
			}
			q, pos = q+64-sh, pos+64-sh
		}
		if pos > total {
			break
		}
		g := q<<kk | tailWord(src, pos>>3)>>(pos&7)&(1<<kk-1) + 1
		pos += kk
		ors |= g | q
		buf[i] = uint32(g)
		i++
	}
	if i < len(buf) || pos > total {
		return nil, fmt.Errorf("%d bytes are no Rice list of %d ids: a value runs past them", len(raw), deg)
	}
	if ors>>32 != 0 {
		return nil, fmt.Errorf("list of %d ids holds an id outside [0,%d)", deg, c.n)
	}
	id, gaps, vlen := riceSum(buf)
	if id >= uint64(c.n) {
		return nil, fmt.Errorf("list of %d ids holds an id outside [0,%d)", deg, c.n)
	}
	if pos+8 <= total {
		return nil, fmt.Errorf("%d bytes are no Rice list of %d ids: its values end in byte %d", len(raw), deg, (pos+7)/8)
	}
	if pos < total && raw[len(raw)-1]>>(pos&7) != 0 {
		return nil, fmt.Errorf("Rice list of %d ids: a bit past its values is set", deg)
	}
	if want := riceK(id, deg); k != want {
		return nil, fmt.Errorf("Rice list of %d ids at parameter %d, its ids give %d", deg, k, want)
	}
	w := uint8(c.idw)
	if deg > 1 {
		w = byteWidth(uint32(gaps))
	}
	if other := min(c.length(deg, w), int64(vlen)); int64(len(raw)) >= other {
		return nil, fmt.Errorf("Rice list of %d ids takes %d bytes, another form %d", deg, len(raw), other)
	}
	return buf, nil
}

// riceSum turns the Rice values in buf, decoded as gaps (the first id
// plus 1 first), into ids in place, and reports the last id (−1 for an
// empty list) and the other two forms' measures: the later gaps ORed and
// the uvarint bytes of the first id and the gaps. It is a leaf, so its
// loop's variables stay in registers, which decodeRice's did not.
func riceSum(buf []uint32) (id, gaps, vlen uint64) {
	id = ^uint64(0)
	if len(buf) > 0 {
		id = uint64(buf[0]) - 1
		buf[0] = uint32(id)
		vlen = uint64(uvLen(buf[0]))
	}
	for j := 1; j < len(buf); j++ {
		g := buf[j]
		gaps |= uint64(g)
		vlen += uint64(uvLen(g))
		id += uint64(g)
		buf[j] = uint32(id)
	}
	return id, gaps, vlen
}

// riceRun decodes the Rice values of parameter k from bit pos of src on
// into buf as gaps, x + 1 each: while 8 bytes are left from pos's byte
// and the 57 bits or more they hold from pos on hold the value's run, 1
// and low bits. It reports the values' count, where the next starts and
// the gaps ORed. It is a leaf of few variables, held in registers: every
// load depends on the value before it, which a spill would lengthen. Two
// values are taken from one load while both fit, then one a load. A
// shift count is taken mod 64, so none costs a test of its count: a count
// of 64 or more comes only of a value that does not fit, whose decoding
// is discarded.
func riceRun(src []byte, buf []uint32, k, pos uint64) (int, uint64, uint64) {
	mask := uint64(1)<<(k&63) - 1
	var ors uint64
	i := 0
	for ; i+1 < len(buf); i += 2 {
		at := pos >> 3
		if at+8 > uint64(len(src)) {
			break
		}
		word := binary.LittleEndian.Uint64(src[at:at+8:at+8]) >> (pos & 7)
		q := uint64(bits.TrailingZeros64(word | 1<<63))
		n := q + 1 + k
		next := word >> (n & 63)
		r := uint64(bits.TrailingZeros64(next | 1<<63))
		m := r + 1 + k
		if n+m > 57 {
			break
		}
		g := q<<(k&63) | word>>((q+1)&63)&mask + 1
		h := r<<(k&63) | next>>((r+1)&63)&mask + 1
		ors |= g | h
		buf[i], buf[i+1] = uint32(g), uint32(h)
		pos += n + m
	}
	for ; i < len(buf); i++ {
		at := pos >> 3
		if at+8 > uint64(len(src)) {
			break
		}
		word := binary.LittleEndian.Uint64(src[at:at+8:at+8]) >> (pos & 7)
		q := uint64(bits.TrailingZeros64(word | 1<<63))
		if q+k >= 57 {
			break
		}
		g := q<<(k&63) | word>>((q+1)&63)&mask + 1
		ors |= g
		buf[i] = uint32(g)
		pos += q + 1 + k
	}
	return i, pos, ors
}

// tailWord returns the 8 bytes of src from byte at on, little-endian,
// those past src's end 0.
func tailWord(src []byte, at uint64) uint64 {
	var pad [8]byte
	if at < uint64(len(src)) {
		copy(pad[:], src[at:])
	}
	return binary.LittleEndian.Uint64(pad[:])
}
