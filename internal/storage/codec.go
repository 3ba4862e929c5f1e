package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The list codec of format versions 2 and 3. A node's sorted list u1 <
// u2 < … < ud is stored as u1 in idw bytes, idw the byte width of n−1 for
// the whole graph, then the d−1 gaps u(i+1) − u(i), each at least 1, as
// little-endian integers of w bytes, w ∈ {1,2,3,4} the smallest width
// that holds the list's largest gap. An empty list takes no bytes. A
// list of degree d spans idw + w·(d−1) bytes: a version-3 node record
// gives d and w, so the lengths place every list; a version-2 table
// stores w nowhere, and the byte offsets of its node records, which tile
// the edge table, give it back (listCodec.width), a length of no such
// form refused. Version-1 tables read through the same codec with idw =
// w = 4 and absolute ids in place of gaps.
//
// Gap coding is WebGraph's (Boldi and Vigna, WWW'04); the fixed width
// per list is this tree's. A prototype with a uvarint per gap read fewer
// blocks (rmat17: 5,401 at start-up against 6,996) but spent about 25%
// more time per decomposition on the per-byte branch, so each list takes
// one width and each width one branch-free loop.

// listCodec is how one graph's lists are laid out.
type listCodec struct {
	n   uint32 // every id is below n
	idw int64  // bytes of a list's first id
	abs bool   // version 1: every id absolute, idw = w = 4
}

// codecOf reports the codec of the tables a header describes.
func codecOf(m Meta) listCodec {
	if m.Version == 1 {
		return listCodec{n: m.N, idw: 4, abs: true}
	}
	return listCodec{n: m.N, idw: int64(byteWidth(max(m.N, 1) - 1))}
}

// byteWidth reports the fewest bytes, 1 to 4, that hold x.
func byteWidth(x uint32) uint8 {
	switch {
	case x < 1<<8:
		return 1
	case x < 1<<16:
		return 2
	case x < 1<<24:
		return 3
	}
	return 4
}

// length reports the byte length of a list of deg ids at gap width w. A
// list of at most one id has w = idw, so the one formula holds for
// every degree: an empty list takes idw − idw = 0 bytes.
func (c listCodec) length(deg uint32, w uint8) int64 {
	return c.idw + int64(w)*(int64(deg)-1)
}

// width recovers the gap width of a list of deg ids that spans n bytes
// (idw for lists of at most one id), and whether n is of the form
// idw + w·(deg−1) for a width the codec writes.
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

// encode appends the list nbrs, sorted ascending, to dst, and reports
// its gap width (idw for a list of at most one id).
func (c listCodec) encode(dst []byte, nbrs []uint32) ([]byte, uint8) {
	if len(nbrs) == 0 {
		return dst, uint8(c.idw)
	}
	var maxGap uint32
	for i := 1; i < len(nbrs); i++ {
		maxGap = max(maxGap, nbrs[i]-nbrs[i-1])
	}
	idw, w := int(c.idw), int(byteWidth(maxGap))
	if len(nbrs) == 1 {
		w = idw // no gap is stored; the width is the canonical one
	}
	n := len(dst)
	end := n + idw + w*(len(nbrs)-1)
	// Every id is stored as 4 bytes and the next one overwrites what the
	// width drops, so the slice runs 4 bytes past the list until the end.
	dst = slices.Grow(dst, end+4-n)[:end+4]
	binary.LittleEndian.PutUint32(dst[n:], nbrs[0])
	n += idw
	for i := 1; i < len(nbrs); i++ {
		binary.LittleEndian.PutUint32(dst[n:], nbrs[i]-nbrs[i-1])
		n += w
	}
	return dst[:end], uint8(w)
}

// decode reads the deg ids of the list stored as raw — the whole list
// and nothing more, its gap width given by its length — into buf (grown
// geometrically if short) and returns them. A list that is not strictly
// ascending or holds an id ≥ n is an error: headers from older builders
// carry no checksums, so the bytes may be anything.
func (c listCodec) decode(raw []byte, deg uint32, buf []uint32) ([]uint32, error) {
	w, ok := c.width(int64(len(raw)), deg)
	if !ok {
		return nil, fmt.Errorf("%d bytes are no list of %d ids", len(raw), deg)
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
	if minGap == 0 {
		return nil, fmt.Errorf("list of %d ids not strictly ascending", deg)
	}
	if last >= uint64(c.n) {
		return nil, fmt.Errorf("list of %d ids holds id %d, outside [0,%d)", deg, last, c.n)
	}
	return buf, nil
}
