package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The node table of format version 3 holds one record per node, in id
// order: uvarint(deg<<2 | (w−1)), deg the node's degree and w its list's
// gap width (idw for a list of at most one id, and no other value). No
// offset is stored: list v starts where list v−1 ends, so a pass over
// the records places every list as a running sum of their lengths. A
// record is the shortest varint of at most 34 bits, five bytes. Versions
// 1 and 2 stored 12 bytes a node, {offset uint64, degree uint32}, and
// stay readable in place (legacyRecords).
const (
	maxRecordLen     = 5
	legacyRecordSize = 12
)

// appendRecord appends the version-3 record of a list of deg ids at gap
// width w to dst.
func appendRecord(dst []byte, deg uint32, w uint8) []byte {
	return binary.AppendUvarint(dst, uint64(deg)<<2|uint64(w-1))
}

// A nodeDecoder turns a node table's bytes, met front to back in pieces
// of any size, into the lists they place in the edge table, in id order,
// and holds the whole to what the header says of it: the lists tile the
// edge table from byte 0 to its end, their degrees add up to the
// header's arc count, and the bytes' CRC32C is the header's (headers from
// older builders carry none, and are held to the rest alone). A list is
// emitted only once it is known to lie inside the edge table, so nothing
// is sized from a record before that; an error leaves the table unused.
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
	return &varintRecords{tally: t}
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

// varintRecords decodes a version-3 node table.
type varintRecords struct {
	tally
	off int64  // where list v starts: the lengths of the lists before it
	x   uint64 // the record being decoded, its first k bytes
	k   int
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
		if c >= 0x80 || (c == 0 && k > 1) || x >= 1<<34 {
			return fmt.Errorf("storage: %s: node %d's record is no shortest varint of at most 34 bits", d.path, d.v)
		}
		l := list{off: d.off, deg: uint32(x >> 2), w: uint8(x&3) + 1}
		if l.deg <= 1 && int64(l.w) != d.codec.idw {
			return fmt.Errorf("storage: %s: node %d's list of %d ids gives gap width %d, not %d", d.path, d.v, l.deg, l.w, d.codec.idw)
		}
		d.off += d.codec.length(l.deg, l.w)
		if d.off > d.meta.EtBytes {
			return fmt.Errorf("storage: %s: node %d's list ends at byte %d, past the %d-byte edge table", d.path, d.v, d.off, d.meta.EtBytes)
		}
		d.arcs += int64(l.deg)
		if err := emit(d.v, l); err != nil {
			return err
		}
		d.v++
	}
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
	l.w = w
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
