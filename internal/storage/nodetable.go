package storage

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The node table holds one record per node, in layout order: the order
// the edge table stores the lists in, which is the order every scan
// visits them. The nodes are laid out in id order or in any other, as
// the header's idorder key says, and a record is led by varint(v − u),
// zigzag-coded, v the record's id and u the id of the record before it
// (−1 before the first), exactly when the layout is not id order; the
// ids are then a permutation of [0, n). The rest of a record gives the
// list's form (codec.go) in a tag of three bits: uvarint(deg<<3 | (w−1))
// for a fixed-width list of gap width w (idw for a list of at most one
// id, and no other value); uvarint(deg<<3 | 4) then uvarint(x) for one in
// the variable form, x the bytes its values take beyond one each, at
// most 4·deg; and in version 7 uvarint(deg<<3 | 5) then uvarint(x<<5 |
// k) for a Rice list at parameter k, x the bytes it takes beyond
// ⌈deg·(1+k)/8⌉ (riceMin), at most ⌈deg/4⌉. Tags 6 and 7 are refused, as
// is tag 5 in version 6. No offset is stored: the list at position p
// starts where the one at p−1 ends, so a pass over the records places
// every list as a running sum of their lengths. Each varint is the
// shortest encoding of its value, at most five bytes: a degree and form
// of 35 bits, an id's delta, an excess of 4·deg at most or a Rice excess
// and k of 35 bits. A table is decoded once, by the node index's build
// (decodeNodes), record after record.
const (
	maxRecordLen = 5
	varTag       = 4 // a record's form: the variable form
	riceTag      = 5 // and in version 7 the Rice form
)

// appendRecord appends the record of list l, without its id, to dst.
func (c listCodec) appendRecord(dst []byte, l list) []byte {
	switch {
	case l.w >= riceForm:
		k := l.w - riceForm
		dst = binary.AppendUvarint(dst, uint64(l.deg)<<3|riceTag)
		return binary.AppendUvarint(dst, uint64(l.size-riceMin(l.deg, k))<<5|uint64(k))
	case l.w == varForm:
		dst = binary.AppendUvarint(dst, uint64(l.deg)<<3|varTag)
		return binary.AppendUvarint(dst, uint64(l.size-int64(l.deg)))
	}
	return binary.AppendUvarint(dst, uint64(l.deg)<<3|uint64(l.w-1))
}

// place reports the form and size of a list of deg ids whose record has
// the given tag, a gap width's or varTag or riceTag followed by the
// varint x. The record is one decodeNodes has checked, or the index's,
// which it checked when it built the index.
func (c listCodec) place(deg uint32, tag, x uint64) (uint8, int64) {
	switch tag {
	case varTag:
		return varForm, int64(deg) + int64(x)
	case riceTag:
		k := uint8(x & 31)
		return riceForm + k, riceMin(deg, k) + int64(x>>5)
	}
	return uint8(tag) + 1, c.length(deg, uint8(tag)+1)
}

// decodeNodes reads g's node table front to back from r, one record after
// another, and turns it into the lists it places in the edge table, in
// layout order, each with its node's id. It holds the whole to what the
// header says of the table: the lists tile the edge table from byte 0 to
// its end, their degrees add up to the header's arc count, the ids of a
// table led by them are a permutation of [0, n), and the bytes' CRC32C is
// the header's. A list is emitted only once it is known to lie inside the
// edge table, so nothing is sized from a record before that; an error
// leaves the table unused.
func (g *Graph) decodeNodes(r *Reader, emit func(v uint32, l list) error) error {
	m := g.meta
	var seen []uint64 // with ids: the ids met, a bit each
	if !m.IDOrder {
		seen = make([]uint64, (int64(m.N)+63)/64)
	}
	var off, arcs int64 // where the next list starts; the degrees' sum
	id := int64(-1)
	for p := range m.N {
		x, err := r.uvarint()
		if seen == nil {
			id++
		} else if err == nil {
			if id += int64(x>>1) ^ -int64(x&1); id < 0 || id >= int64(m.N) {
				return fmt.Errorf("storage: %s: record %d gives node %d, outside [0,%d)", r.path, p, id, m.N)
			}
			if seen[id/64]&(1<<(id%64)) != 0 {
				return fmt.Errorf("storage: %s: record %d gives node %d a second time", r.path, p, id)
			}
			seen[id/64] |= 1 << (id % 64)
			x, err = r.uvarint()
		}
		if err != nil {
			return recordErr(r, p, m.N, err)
		}
		v := uint32(id)
		tag := x & 7 // at most five bytes: the degree fits 32 bits
		l := list{off: off, deg: uint32(x >> 3)}
		switch {
		case tag == varTag || tag == riceTag && g.codec.rc:
			if l.deg == 0 {
				return fmt.Errorf("storage: %s: node %d's empty list is in list form %d", r.path, v, tag)
			}
			if x, err = r.uvarint(); err != nil {
				return recordErr(r, p, m.N, err)
			}
			if tag == varTag && x > 4*uint64(l.deg) {
				return fmt.Errorf("storage: %s: node %d's %d values take %d bytes beyond one each, more than 4 each", r.path, v, l.deg, x)
			}
			if most := (uint64(l.deg) + 3) / 4; tag == riceTag && x>>5 > most {
				return fmt.Errorf("storage: %s: node %d's Rice list of %d ids takes %d bytes beyond its least, more than %d", r.path, v, l.deg, x>>5, most)
			}
		case tag >= varTag:
			return fmt.Errorf("storage: %s: node %d's record gives list form %d", r.path, v, tag)
		case l.deg <= 1 && tag+1 != uint64(g.codec.idw):
			return fmt.Errorf("storage: %s: node %d's list of %d ids gives gap width %d, not %d", r.path, v, l.deg, tag+1, g.codec.idw)
		}
		l.w, l.size = g.codec.place(l.deg, tag, x)
		if off += l.size; off > m.EtBytes {
			return fmt.Errorf("storage: %s: node %d's list ends at byte %d, past the %d-byte edge table", r.path, v, off, m.EtBytes)
		}
		arcs += int64(l.deg)
		if err := emit(v, l); err != nil {
			return err
		}
	}
	if r.pos < len(r.buf) || r.off < r.size {
		return fmt.Errorf("storage: %s: bytes follow the last of %d records", r.path, m.N)
	}
	if off != m.EtBytes {
		return fmt.Errorf("storage: %s: the lists end at byte %d of the %d-byte edge table", r.path, off, m.EtBytes)
	}
	return g.checkTotals(r, arcs)
}

// recordErr is err, met reading record p of n's varints, as the table's:
// it ended inside the record, or a varint is no shortest one of at most
// maxRecordLen bytes.
func recordErr(r *Reader, p, n uint32, err error) error {
	switch err {
	case io.EOF:
		return fmt.Errorf("storage: %s: the node table ends inside record %d of %d", r.path, p, n)
	case errVarint:
		return fmt.Errorf("storage: %s: record %d holds no shortest varint of at most %d bytes", r.path, p, maxRecordLen)
	}
	return err
}

// checkTotals holds the degrees' sum and the CRC32C of the table, which r
// has read whole, to the header.
func (g *Graph) checkTotals(r *Reader, arcs int64) error {
	if arcs != g.meta.Arcs {
		return fmt.Errorf("storage: %s: the lists end after %d arcs, the header says %d", r.path, arcs, g.meta.Arcs)
	}
	if r.sum != g.meta.NtCRC {
		return fmt.Errorf("storage: %s: node table crc %08x, want %08x", r.path, r.sum, g.meta.NtCRC)
	}
	return nil
}

// indexStride is how many consecutive positions share one sample.
const indexStride = 64

// nodeIndex is the node table held in memory: the table's records, one
// sample every
// indexStride positions that says where its record and its list start,
// and, for a table laid out in another order than ids, every id's
// position. A scan decodes the records from a sample on; a lookup of one
// node decodes at most indexStride−1 records before its own. A sample's
// record leads with its id's delta from −1, not from the id before it, so
// decoding can start there. The index takes nt + n/4 bytes in id order
// and nt + 4n + n/4 + n/16 otherwise, nt the table's size and n/16 the
// room reserved for the sampled records' longer deltas. A record's form is read through the table's codec
// (place).
type nodeIndex struct {
	codec   listCodec
	recs    []byte
	samples []sample
	pos     []uint32 // each id's position; nil when positions are ids
}

// sample is where the record and the list of one position start.
type sample struct {
	rec, et int64
}

// newIndex is the empty index of a table of n records, nt bytes of them,
// laid out in id order unless reordered.
func newIndex(codec listCodec, n uint32, nt int64, reordered bool) *nodeIndex {
	samples := (int64(n) + indexStride - 1) / indexStride
	if reordered {
		nt += (maxRecordLen - 1) * samples // a sampled id's delta from −1 may be longer
	}
	x := &nodeIndex{codec: codec, recs: make([]byte, 0, nt), samples: make([]sample, 0, samples)}
	if reordered {
		x.pos = make([]uint32, n)
	}
	return x
}

// add appends id v's list l as the record at position p, the next one;
// prev is the id at position p−1 (−1 for p = 0).
func (x *nodeIndex) add(p uint32, prev int64, v uint32, l list) {
	if p%indexStride == 0 {
		x.samples = append(x.samples, sample{rec: int64(len(x.recs)), et: l.off})
		prev = -1
	}
	if x.pos != nil {
		x.recs = binary.AppendVarint(x.recs, int64(v)-prev)
		x.pos[v] = p
	}
	x.recs = x.codec.appendRecord(x.recs, l)
}

// walker decodes an index's records in layout order from one position on.
type walker struct {
	x   *nodeIndex
	rec int64  // where the next record starts in x.recs
	id  int64  // the id of the record before it
	off int64  // where its list starts in the edge table
	p   uint32 // its position
}

// at returns a walker whose next record is position p's.
func (x *nodeIndex) at(p uint32) walker {
	s := p / indexStride
	w := walker{x: x, rec: x.samples[s].rec, off: x.samples[s].et, p: s * indexStride}
	w.id = int64(w.p) - 1 // in id order; next resets it at a reordered table's sample
	for w.p < p {
		w.next()
	}
	return w
}

// seek moves the walker forward to position p: from the sample before p
// when that is past the walker's, else record by record.
func (w *walker) seek(p uint32) {
	if p/indexStride > w.p/indexStride {
		*w = w.x.at(p)
	}
	for w.p < p {
		w.next()
	}
}

// next decodes the walker's record and moves past it.
func (w *walker) next() (uint32, list) {
	x := w.x
	if x.pos != nil {
		if w.p%indexStride == 0 {
			w.id = -1 // a sampled record's delta is from −1
		}
		z := w.uvarint()
		w.id += int64(z>>1) ^ -int64(z&1)
	} else {
		w.id++
	}
	r := w.uvarint()
	l := list{off: w.off, deg: uint32(r >> 3)}
	var y uint64
	if r&7 >= varTag {
		y = w.uvarint()
	}
	l.w, l.size = x.codec.place(l.deg, r&7, y)
	w.off += l.size
	w.p++
	return uint32(w.id), l
}

// uvarint decodes the varint at w.rec, which the index's build checked.
func (w *walker) uvarint() uint64 {
	b := w.x.recs
	var x uint64
	for s := uint(0); ; s += 7 {
		c := b[w.rec]
		w.rec++
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			return x
		}
	}
}

// list reports where node v's list lies.
func (x *nodeIndex) list(v uint32) list {
	p := v
	if x.pos != nil {
		p = x.pos[v]
	}
	w := x.at(p)
	_, l := w.next()
	return l
}
