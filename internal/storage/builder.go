package storage

import (
	"encoding/binary"
	"fmt"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// Builder writes a graph to disk in format version 5: the two tables, the
// checksum sidecar and, last, the meta header. Adjacency lists are
// appended one call per node, each sorted ascending, in the order the
// tables are to lay them out, and each is stored in the shorter of its
// two forms (codec.go). In id order the header says idorder=1; in any
// other order the node records carry the ids (nodetable.go). The node
// table is held in memory until Close, since which of the two it is is
// known only once a list arrives out of id order. Writes are charged to
// the counter at block granularity, so building is itself an I/O-accounted
// operation (WriteGraph's checkpoints and fold-backs, and Build).
type Builder struct {
	fs      faultfs.FS
	base    string
	ctr     *stats.IOCounter
	codec   listCodec
	n       uint32
	count   uint32   // lists appended
	prev    int64    // the id of the last list appended, −1 before the first
	seen    []uint64 // out of id order: the ids appended, a bit each; nil in id order
	arcs    int64
	etBytes int64
	nt      *BlockWriter
	et      *BlockWriter
	recs    []byte // the node table
	listBuf []byte
	closed  bool
}

// NewBuilder starts writing a graph with n nodes at path prefix base on
// the real filesystem.
func NewBuilder(base string, n uint32, ctr *stats.IOCounter) (*Builder, error) {
	return newBuilder(faultfs.OS, base, n, ctr)
}

func newBuilder(fsys faultfs.FS, base string, n uint32, ctr *stats.IOCounter) (*Builder, error) {
	nt, err := CreateBlockWriterFS(fsys, nodePath(base), ctr)
	if err != nil {
		return nil, err
	}
	et, err := CreateBlockWriterFS(fsys, edgePath(base), ctr)
	if err != nil {
		nt.Close()
		return nil, err
	}
	nt.keepGranules, et.keepGranules = true, true
	codec := codecOf(Meta{Version: FormatVersion, N: n})
	return &Builder{fs: fsys, base: base, ctr: ctr, codec: codec, n: n, prev: -1, nt: nt, et: et}, nil
}

// AppendList writes nbr(v) as the next list of the layout. Each node may
// be appended once, in any order; nodes never appended get an empty list
// at Close. The list must be sorted ascending and free of duplicates and
// self-loops; Builder verifies ordering cheaply and rejects violations.
func (b *Builder) AppendList(v uint32, nbrs []uint32) error {
	if b.closed {
		return fmt.Errorf("storage: AppendList on closed builder")
	}
	if v >= b.n {
		return fmt.Errorf("storage: node %d out of range [0,%d)", v, b.n)
	}
	prev := int64(-1)
	for i, u := range nbrs {
		if u == v {
			return fmt.Errorf("storage: self-loop %d stored for node %d", u, v)
		}
		if int64(u) <= prev {
			return fmt.Errorf("storage: adjacency of %d not strictly ascending at index %d", v, i)
		}
		if u >= b.n {
			return fmt.Errorf("storage: neighbour %d of node %d out of range [0,%d)", u, v, b.n)
		}
		prev = int64(u)
	}
	var w uint8
	b.listBuf, w = b.codec.encode(b.listBuf[:0], nbrs)
	return b.appendEncoded(v, list{size: int64(len(b.listBuf)), deg: uint32(len(nbrs)), w: w}, b.listBuf)
}

// appendEncoded writes the list l that enc encodes as the next list of
// the layout: AppendList's tail, and CopyLists' whole append, whose
// bytes the checksums vouched for.
func (b *Builder) appendEncoded(v uint32, l list, enc []byte) error {
	if b.seen == nil && int64(v) != b.prev+1 {
		if int64(v) <= b.prev {
			return fmt.Errorf("storage: node %d appended twice", v)
		}
		b.reorder()
	}
	if b.seen != nil {
		word, bit := v/64, uint64(1)<<(v%64)
		if b.seen[word]&bit != 0 {
			return fmt.Errorf("storage: node %d appended twice", v)
		}
		b.seen[word] |= bit
		b.recs = binary.AppendVarint(b.recs, int64(v)-b.prev)
	}
	b.recs = appendRecord(b.recs, l)
	if _, err := b.et.Write(enc); err != nil {
		return err
	}
	b.etBytes += int64(len(enc))
	b.arcs += int64(l.deg)
	b.prev = int64(v)
	b.count++
	return nil
}

// reorder turns the records of the lists appended so far, nodes 0 to
// count−1 in id order, into records each led by its id's delta, 1.
func (b *Builder) reorder() {
	b.seen = make([]uint64, (int64(b.n)+63)/64)
	recs := make([]byte, 0, len(b.recs)+int(b.count))
	for r := b.recs; len(r) > 0; {
		x, k := binary.Uvarint(r)
		if x&7 == gvTag {
			_, excess := binary.Uvarint(r[k:])
			k += excess
		}
		recs = binary.AppendVarint(recs, 1)
		recs, r = append(recs, r[:k]...), r[k:]
	}
	for v := range b.count {
		b.seen[v/64] |= 1 << (v % 64)
	}
	b.recs = recs
}

// Arcs reports the number of arcs appended so far.
func (b *Builder) Arcs() int64 { return b.arcs }

// Close pads any unwritten nodes with empty lists, flushes both tables,
// writes their granule checksums to the sidecar and writes the meta file
// (including the whole-table checksums).
func (b *Builder) Close() error { return b.finish(false) }

// finish is Close, with durability when durable is set: both tables and
// the sidecar are fsynced before the meta file is written, and the meta
// file is fsynced too, so a checkpoint committed by renaming its
// directory never has a valid header pointing at volatile tables.
func (b *Builder) finish(durable bool) error {
	if b.closed {
		return nil
	}
	for v := uint32(0); b.count < b.n; v++ {
		if b.seen == nil {
			v = b.count
		} else if b.seen[v/64]&(1<<(v%64)) != 0 {
			continue
		}
		if err := b.AppendList(v, nil); err != nil {
			return err
		}
	}
	b.closed = true
	_, err := b.nt.Write(b.recs)
	if err == nil && durable {
		if err = b.nt.Sync(); err == nil {
			err = b.et.Sync()
		}
	}
	if err != nil {
		b.nt.Close()
		b.et.Close()
		return err
	}
	if err := b.nt.Close(); err != nil {
		b.et.Close()
		return err
	}
	if err := b.et.Close(); err != nil {
		return err
	}
	ntCRC, etCRC := b.nt.crc, b.et.crc
	granules := append(b.nt.granuleCRCs(), b.et.granuleCRCs()...)
	if err := writeSidecar(b.fs, b.base, granules, b.ctr, durable); err != nil {
		return err
	}
	m := Meta{Version: FormatVersion, N: b.n, Arcs: b.arcs, NtBytes: int64(len(b.recs)), EtBytes: b.etBytes, IDOrder: b.seen == nil, HasCRC: true, NtCRC: ntCRC, EtCRC: etCRC}
	return WriteMetaFS(b.fs, b.base, m, durable)
}

// Abort closes the partial files without writing a meta header, leaving
// the target unreadable rather than silently truncated.
func (b *Builder) Abort() {
	if b.closed {
		return
	}
	b.closed = true
	b.nt.Close()
	b.et.Close()
}

// Source is a graph Scan streams in its layout order, each list sorted
// and valid during its call only, charging what it reads to io.
type Source interface {
	NumNodes() uint32
	NumArcs() int64
	Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error
}

// WriteGraph is the one way a graph is written from a graph, a
// checkpoint and a fold-back alike: src streamed into a Builder at base
// through fsys, so the tables keep its layout, reads and writes charged
// to io, fsynced when sync is set.
// A scan that fails, or streams other than NumArcs arcs, leaves no header.
func WriteGraph(fsys faultfs.FS, base string, src Source, io *stats.IOCounter, sync bool) error {
	b, err := newBuilder(fsys, base, src.NumNodes(), io)
	if err != nil {
		return err
	}
	if err := src.Scan(io, b.AppendList); err != nil {
		b.Abort()
		return err
	}
	if b.Arcs() != src.NumArcs() {
		b.Abort()
		return fmt.Errorf("storage: %s: the source streamed %d arcs but reports %d", base, b.Arcs(), src.NumArcs())
	}
	return b.finish(sync)
}

// CopyLists writes the graph g again at base, its lists in order (each
// id once) and its other ids' lists, which can only be empty, after
// them, as the Builder pads. Each list's encoded bytes are copied as
// they are: lists hold ids, not positions, so only the node records are
// written anew, and g must be of the version the Builder writes, whose
// lists are in the forms the Builder picks (Build's scratch table is).
// g's lists are read through its frames, every block held to the
// checksums its open vouched for; the reads and the writes are charged to
// g's counter. A copy that fails, or leaves a list out, leaves no header.
func CopyLists(base string, g *Graph, order []uint32) error {
	if g.meta.Version != FormatVersion {
		return fmt.Errorf("storage: %s is a version-%d table, not the version %d CopyLists copies", g.base, g.meta.Version, FormatVersion)
	}
	// Where each list lies, from one walk of the index: a lookup per node
	// would decode up to 63 records before its own.
	x, err := g.index()
	if err != nil {
		return err
	}
	n := g.NumNodes()
	lists := make([]list, n)
	if n > 0 {
		w := x.at(0)
		for range n {
			v, l := w.next()
			lists[v] = l
		}
	}
	b, err := NewBuilder(base, n, g.io)
	if err != nil {
		return err
	}
	for _, v := range order {
		if v >= n {
			b.Abort()
			return fmt.Errorf("storage: node %d out of range [0,%d)", v, n)
		}
		l := lists[v]
		raw, err := g.rawList(l)
		if err == nil {
			err = b.appendEncoded(v, l, raw)
		}
		if err != nil {
			b.Abort()
			return err
		}
	}
	if b.Arcs() != g.NumArcs() {
		b.Abort()
		return fmt.Errorf("storage: %s: the order copied %d of %s's %d arcs", base, b.Arcs(), g.base, g.NumArcs())
	}
	return b.Close()
}
