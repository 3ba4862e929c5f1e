package storage

import (
	"fmt"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// Builder writes a graph to disk: the two tables, the checksum sidecar
// and, last, the meta header. Adjacency lists must be appended in
// node-id order, one call per node, with each list sorted ascending.
// Writes are charged to the counter at block granularity, so building is
// itself an I/O-accounted operation (used by EMCore re-partitioning, and
// by WriteGraph for checkpoints and fold-backs).
type Builder struct {
	fs      faultfs.FS
	base    string
	ctr     *stats.IOCounter
	codec   listCodec
	n       uint32
	next    uint32
	arcs    int64
	ntBytes int64
	etBytes int64
	nt      *BlockWriter
	et      *BlockWriter
	recBuf  []byte
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
	return &Builder{fs: fsys, base: base, ctr: ctr, codec: codec, n: n, nt: nt, et: et}, nil
}

// AppendList writes nbr(v) for the next node. Lists must arrive for
// v = 0, 1, ..., n-1 in order; missing nodes can be appended with an empty
// list. The list must be sorted ascending and free of duplicates and
// self-loops; Builder verifies ordering cheaply and rejects violations.
func (b *Builder) AppendList(v uint32, nbrs []uint32) error {
	if b.closed {
		return fmt.Errorf("storage: AppendList on closed builder")
	}
	if v != b.next {
		return fmt.Errorf("storage: AppendList out of order: got node %d, want %d", v, b.next)
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
	b.recBuf = appendRecord(b.recBuf[:0], uint32(len(nbrs)), w)
	if _, err := b.nt.Write(b.recBuf); err != nil {
		return err
	}
	if _, err := b.et.Write(b.listBuf); err != nil {
		return err
	}
	b.ntBytes += int64(len(b.recBuf))
	b.etBytes += int64(len(b.listBuf))
	b.arcs += int64(len(nbrs))
	b.next++
	return nil
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
	for b.next < b.n {
		if err := b.AppendList(b.next, nil); err != nil {
			return err
		}
	}
	b.closed = true
	if durable {
		if err := b.nt.Sync(); err != nil {
			b.nt.Close()
			b.et.Close()
			return err
		}
		if err := b.et.Sync(); err != nil {
			b.nt.Close()
			b.et.Close()
			return err
		}
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
	m := Meta{Version: FormatVersion, N: b.n, Arcs: b.arcs, NtBytes: b.ntBytes, EtBytes: b.etBytes, HasCRC: true, NtCRC: ntCRC, EtCRC: etCRC}
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

// Source is a graph Scan streams in id order, each list sorted and valid
// during its call only, charging what it reads to io.
type Source interface {
	NumNodes() uint32
	NumArcs() int64
	Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error
}

// WriteGraph is the one way a graph is written from a graph, a
// checkpoint and a fold-back alike: src streamed into a Builder at base
// through fsys, reads and writes charged to io, fsynced when sync is set.
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
