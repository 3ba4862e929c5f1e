package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The node table holds one record per node, in layout order: the order
// the edge table stores the lists in, which is the order every scan
// visits them. Format version 3 lays the nodes out in id order, and each
// record is uvarint(deg<<2 | (w−1)), deg the node's degree and w its
// list's gap width (idw for a list of at most one id, and no other
// value). Version 4 lays them out in any order, and each record leads
// with varint(v − u), zigzag-coded, v the record's id and u the id of the
// record before it (−1 before the first); the ids are a permutation of
// [0, n). Version 5 lays them out in either, as its header's idorder key
// says, and a record is led by the id's delta exactly when the layout is
// not id order; the rest of its record gives the list's form (codec.go):
// uvarint(deg<<3 | (w−1)) for a fixed-width list, and uvarint(deg<<3 |
// 4) then uvarint(x) for a group-varint one, x the bytes its values take
// beyond one each. No offset is stored: the list at position p starts
// where the one at p−1 ends, so a pass over the records places every
// list as a running sum of their lengths. Each varint is the shortest
// encoding of its value, at most five bytes: a degree and form of 34 bits
// (35 in version 5), an id's delta or an excess of 3·deg at most. Versions
// 1 and 2 stored 12 bytes a node, {offset uint64, degree uint32}, in id
// order, and stay readable in place (legacyRecords).
const (
	maxRecordLen     = 5
	legacyRecordSize = 12
	gvTag            = 4 // a version-5 record's form: group varint
)

// appendRecord appends the version-5 record of list l, without its id,
// to dst.
func appendRecord(dst []byte, l list) []byte {
	if l.w == groupVarint {
		dst = binary.AppendUvarint(dst, uint64(l.deg)<<3|gvTag)
		return binary.AppendUvarint(dst, uint64(l.size-gvMin(l.deg)))
	}
	return binary.AppendUvarint(dst, uint64(l.deg)<<3|uint64(l.w-1))
}

// A nodeDecoder turns a node table's bytes, met front to back in pieces
// of any size, into the lists they place in the edge table, in layout
// order, each with its node's id, and holds the whole to what the header
// says of it: the lists tile the edge table from byte 0 to its end, their
// degrees add up to the header's arc count, a version-4 table's ids are a
// permutation of [0, n), and the bytes' CRC32C is the header's (headers
// from older builders carry none, and are held to the rest alone). A list
// is emitted only once it is known to lie inside the edge table, so
// nothing is sized from a record before that; an error leaves the table
// unused.
type nodeDecoder interface {
	// feed decodes p, emitting each list it places.
	feed(p []byte, emit func(v uint32, l list) error) error
	// done ends the table, emitting the list still pending if any.
	done(emit func(v uint32, l list) error) error
}

// decoder returns a decoder of g's node table.
func (g *Graph) decoder() nodeDecoder {
	t := tally{path: nodePath(g.base), meta: g.meta, codec: g.codec}
	if g.meta.Version <= 2 {
		return &legacyRecords{tally: t}
	}
	return newVarintRecords(t)
}

// tally is what either decoder holds to the header.
type tally struct {
	path  string
	meta  Meta
	codec listCodec
	v     uint32 // records decoded
	arcs  int64  // their degrees' sum
	crc   uint32 // their bytes' CRC32C
}

// check holds the degrees and the checksum to the header.
func (t *tally) check() error {
	if t.arcs != t.meta.Arcs {
		return fmt.Errorf("storage: %s: the lists end after %d arcs, the header says %d", t.path, t.arcs, t.meta.Arcs)
	}
	if t.meta.HasCRC && t.crc != t.meta.NtCRC {
		return fmt.Errorf("storage: %s: node table crc %08x, want %08x", t.path, t.crc, t.meta.NtCRC)
	}
	return nil
}

// varintRecords decodes a node table of version 3, 4 or 5.
type varintRecords struct {
	tally
	off   int64  // where the next list starts: the lengths of the lists before it
	x     uint64 // the varint being decoded, its first k bytes
	k     int
	ids   bool     // each record leads with its id
	shift uint     // a record's degree is its form varint >> shift
	stage int      // which varint of the record is being decoded
	id    int64    // the id of the last record decoded, or being decoded past stageID
	cur   list     // the record's list, in stageExcess
	seen  []uint64 // with ids: the ids met, a bit each
}

// The varints of a record, in order: an id's delta (when records carry
// ids), the degree and form, and a group-varint list's excess.
const (
	stageID = iota
	stageForm
	stageExcess
)

func newVarintRecords(t tally) *varintRecords {
	d := &varintRecords{tally: t, id: -1, shift: 2, stage: stageForm}
	if !t.meta.IDOrder {
		d.ids, d.seen, d.stage = true, make([]uint64, (int64(t.meta.N)+63)/64), stageID
	}
	if t.meta.Version >= 5 {
		d.shift = 3
	}
	return d
}

func (d *varintRecords) feed(p []byte, emit func(uint32, list) error) error {
	d.crc = crc32.Update(d.crc, castagnoli, p)
	for _, c := range p {
		if d.v == d.meta.N {
			return fmt.Errorf("storage: %s: bytes follow the last of %d records", d.path, d.meta.N)
		}
		d.x |= uint64(c&0x7f) << (7 * d.k)
		d.k++
		if c >= 0x80 && d.k < maxRecordLen {
			continue
		}
		x, k := d.x, d.k
		d.x, d.k = 0, 0
		if c >= 0x80 || (c == 0 && k > 1) {
			return fmt.Errorf("storage: %s: record %d holds no shortest varint of at most %d bytes", d.path, d.v, maxRecordLen)
		}
		v := d.v
		if d.ids {
			v = uint32(d.id)
		}
		switch d.stage {
		case stageID:
			if err := d.place(x); err != nil {
				return err
			}
			d.stage = stageForm
			continue
		case stageForm:
			if x >= 1<<(32+d.shift) {
				return fmt.Errorf("storage: %s: record %d's degree and form take more than %d bits", d.path, d.v, 32+d.shift)
			}
			tag := x & (1<<d.shift - 1)
			l := list{off: d.off, deg: uint32(x >> d.shift), w: uint8(tag) + 1}
			if tag == gvTag {
				if l.deg == 0 {
					return fmt.Errorf("storage: %s: node %d's empty list is in the group-varint form", d.path, v)
				}
				l.w = groupVarint
				d.cur, d.stage = l, stageExcess
				continue
			}
			if tag > gvTag {
				return fmt.Errorf("storage: %s: node %d's record gives list form %d", d.path, v, tag)
			}
			if l.deg <= 1 && int64(l.w) != d.codec.idw {
				return fmt.Errorf("storage: %s: node %d's list of %d ids gives gap width %d, not %d", d.path, v, l.deg, l.w, d.codec.idw)
			}
			l.size = d.codec.length(l.deg, l.w)
			d.cur = l
		case stageExcess:
			if x > 3*uint64(d.cur.deg) {
				return fmt.Errorf("storage: %s: node %d's %d group-varint values take %d bytes beyond one each, more than 3 each", d.path, v, d.cur.deg, x)
			}
			d.cur.size = gvMin(d.cur.deg) + int64(x)
		}
		d.stage = stageForm
		if d.ids {
			d.stage = stageID
		}
		d.off += d.cur.size
		if d.off > d.meta.EtBytes {
			return fmt.Errorf("storage: %s: node %d's list ends at byte %d, past the %d-byte edge table", d.path, v, d.off, d.meta.EtBytes)
		}
		d.arcs += int64(d.cur.deg)
		if err := emit(v, d.cur); err != nil {
			return err
		}
		d.v++
	}
	return nil
}

// place takes the zigzag-coded id delta z of record d.v: the id it gives
// must lie in [0, n) and be met for the first time, so n records that
// pass are a permutation of [0, n).
func (d *varintRecords) place(z uint64) error {
	id := d.id + (int64(z>>1) ^ -int64(z&1))
	if id < 0 || id >= int64(d.meta.N) {
		return fmt.Errorf("storage: %s: record %d gives node %d, outside [0,%d)", d.path, d.v, id, d.meta.N)
	}
	w, bit := id/64, uint64(1)<<(id%64)
	if d.seen[w]&bit != 0 {
		return fmt.Errorf("storage: %s: record %d gives node %d a second time", d.path, d.v, id)
	}
	d.seen[w] |= bit
	d.id = id
	return nil
}

func (d *varintRecords) done(func(uint32, list) error) error {
	if d.v < d.meta.N {
		return fmt.Errorf("storage: %s: the node table ends inside record %d of %d", d.path, d.v, d.meta.N)
	}
	if d.off != d.meta.EtBytes {
		return fmt.Errorf("storage: %s: the lists end at byte %d of the %d-byte edge table", d.path, d.off, d.meta.EtBytes)
	}
	return d.check()
}

// legacyRecords decodes the 12-byte records of versions 1 and 2, each a
// list's offset (in arcs for version 1, bytes for 2) and degree. A list's
// gap width is not stored: once the next record, or the table's end,
// bounds the list, its length gives it back (listCodec.width), and a
// length no width gives is refused.
type legacyRecords struct {
	tally
	rec  [legacyRecordSize]byte
	fill int  // bytes of the record rec holds so far
	cur  list // the last record met; its width waits for the next one
}

func (d *legacyRecords) feed(p []byte, emit func(uint32, list) error) error {
	for len(p) > 0 {
		k := copy(d.rec[d.fill:], p)
		p, d.fill = p[k:], d.fill+k
		if d.fill < legacyRecordSize {
			return nil
		}
		d.fill = 0
		if err := d.next(emit); err != nil {
			return err
		}
	}
	return nil
}

// next decodes node v's record, which ends node v−1's list, and emits
// that list. A record outside the edge table is an error before anything
// is sized from it.
func (d *legacyRecords) next(emit func(uint32, list) error) error {
	v := d.v
	off := binary.LittleEndian.Uint64(d.rec[0:8])
	deg := binary.LittleEndian.Uint32(d.rec[8:12])
	end, unit := uint64(d.meta.EtBytes), uint64(1)
	if d.codec.abs {
		unit = 4 // version 1 stores arc offsets
	}
	if off > end/unit || (v == 0 && off != 0) {
		return fmt.Errorf("storage: %s: node %d's record gives offset %d, where no list of the %d-byte edge table starts", d.path, v, off, end)
	}
	off *= unit
	if v > 0 {
		prev, err := d.close(v-1, int64(off))
		if err != nil {
			return err
		}
		if err := emit(v-1, prev); err != nil {
			return err
		}
	}
	d.cur = list{off: int64(off), deg: deg}
	d.arcs += int64(deg)
	d.crc = crc32.Update(d.crc, castagnoli, d.rec[:])
	d.v++
	return nil
}

// close ends node v's list, d.cur, at byte end and gives it the width its
// length implies.
func (d *legacyRecords) close(v uint32, end int64) (list, error) {
	l := d.cur
	w, ok := d.codec.width(end-l.off, l.deg)
	if !ok {
		return l, fmt.Errorf("storage: %s: node %d's list of %d ids spans bytes [%d,%d) of the edge table, a length no gap width gives", d.path, v, l.deg, l.off, end)
	}
	l.w, l.size = w, end-l.off
	return l, nil
}

// done ends the last list with the edge table, checks the totals and
// then emits it.
func (d *legacyRecords) done(emit func(uint32, list) error) error {
	n := d.meta.N
	var last list
	switch {
	case n > 0:
		var err error
		if last, err = d.close(n-1, d.meta.EtBytes); err != nil {
			return err
		}
	case d.meta.EtBytes != 0:
		return fmt.Errorf("storage: %s: no node holds the %d-byte edge table", d.path, d.meta.EtBytes)
	}
	if err := d.check(); err != nil {
		return err
	}
	if n > 0 {
		return emit(n-1, last)
	}
	return nil
}

// indexStride is how many consecutive positions share one sample.
const indexStride = 64

// nodeIndex is the node table held in memory: the records as version 5
// encodes them (re-encoded from an older table), one sample every
// indexStride positions that says where its record and its list start,
// and, for a table laid out in another order than ids, every id's
// position. A scan decodes the records from a sample on; a lookup of one
// node decodes at most indexStride−1 records before its own. A sample's
// record leads with its id's delta from −1, not from the id before it, so
// decoding can start there. The index takes nt + n/4 bytes in id order
// and nt + 4n + n/4 + n/16 otherwise, nt the version-5 table's size and
// n/16 the room reserved for the sampled records' longer deltas.
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

// newIndex is the empty index of a table of n records, about nt bytes of
// them as version 5 encodes them (0 if unknown), laid out in id order
// unless reordered.
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
	x.recs = appendRecord(x.recs, l)
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
	l := list{off: w.off, deg: uint32(r >> 3), w: uint8(r&7) + 1}
	if r&7 == gvTag {
		l.w, l.size = groupVarint, gvMin(l.deg)+int64(w.uvarint())
	} else {
		l.size = x.codec.length(l.deg, l.w)
	}
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
