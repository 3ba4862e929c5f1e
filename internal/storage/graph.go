// Package storage implements the on-disk graph representation the paper
// prescribes: an edge table that stores the adjacency lists consecutively,
// and a node table that stores the degree of every node, from which every
// list's offset follows. Every algorithm's I/O is counted in B-sized block
// transfers.
// As the semi-external model has it, node information is held in memory
// and only adjacency is read from disk: a graph's first use reads the node
// table once into an index (nt + n/4 bytes, and 4n + n/16 more for a
// table laid out in another order than ids), checked whole against the header, and
// every later record comes from there. There is one block reader under
// the tables, a bounded CLOCK cache of B-sized frames (CachedFile) that
// holds edge blocks only once the index is built, and one open: Open
// reads through a cache of the caller's size and checks every block it
// loads against a CRC32C the header vouches for, folded from the checksum
// sidecar or, failing that, recorded by one pass at open. There is no
// other check: the open that serves tables, the index's build and the
// first pass over their lists (SemiCore*'s, or a checkpoint's) are it; a
// pinned handle (Reopen) shares the index, and ScanVerified streams its
// node table again.
//
// A graph <base> occupies three files, and a fourth, optional one:
//
//	<base>.meta  text header (version, node count, arc count, node- and
//	             edge-table bytes, whether the layout is id order, table
//	             CRC32Cs)
//	<base>.nt    node table: n records of a list's degree and form (its
//	             gap width, or group varint and its byte length), in
//	             layout order, each led by its id's delta from the id
//	             before it unless the layout is id order (nodetable.go)
//	<base>.et    edge table: the lists, each in the shorter of a
//	             fixed-width gap coding and group varint, concatenated in
//	             layout order (codec.go)
//	<base>.crc   checksum sidecar: a CRC32C per 512-byte granule of .nt,
//	             then of .et (sidecar.go); the Builder writes it, readers
//	             that lack it or cannot hold it to the header do without
//
// The layout is the order the tables store the lists in, and the order
// every scan visits them: a scan's window is a range of positions (Pos),
// never of ids, and ids stay what they are in the lists and everywhere
// else. No offset is stored: each list starts where the one before it
// ends. Graphs are undirected: every edge {u,v} is stored as the two arcs
// u→v and v→u, and each adjacency list is sorted ascending. The Builder
// writes format version 5, in id order (idorder=1) when the lists arrive
// in id order and in any layout when they do not: Build lays the nodes
// out in a peeling order unless their ids are already local (its lists
// reach the Builder by degree, and CopyLists moves them into that order
// as they are encoded), and a rewrite (WriteGraph: a fold-back or a
// checkpoint) keeps the layout of the graph it rewrites. Tables of
// versions 1 to 4 stay readable in place — version 4 (fixed-width lists
// in any layout), 3 (the same in id order), 2 (12-byte node records of a
// byte offset and a degree) and 1 (the same records with arc offsets,
// 4-byte absolute ids) — and the first rewrite of such a graph writes it
// as version 5.
package storage

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
)

// FormatVersion is the on-disk layout the Builder writes, whatever the
// order its lists arrive in.
const FormatVersion = 5

// Meta is the parsed contents of a <base>.meta file. NtBytes and EtBytes
// are the two tables' sizes (a version-1 or -2 header carries no
// ntbytes: 12 bytes a node; a version-1 header no etbytes: 4 bytes an
// arc). IDOrder reports whether the tables lay the lists out in id order,
// so that node records carry no ids: always for versions 1 to 3, never for
// version 4, and as a version-5 header's idorder key says. HasCRC reports
// whether the header carried table checksums (graphs written by older
// builders have none; everything the Builder writes today does).
type Meta struct {
	Version int
	N       uint32
	Arcs    int64
	NtBytes int64
	EtBytes int64
	IDOrder bool
	HasCRC  bool
	NtCRC   uint32
	EtCRC   uint32
}

// metaPath, nodePath and edgePath derive the three file names of a graph.
func metaPath(base string) string { return base + ".meta" }
func nodePath(base string) string { return base + ".nt" }
func edgePath(base string) string { return base + ".et" }

// WriteMetaFS writes the header file through the given filesystem,
// optionally fsyncing it before close (checkpoint writers need the
// header durable before the checkpoint directory is committed).
func WriteMetaFS(fsys faultfs.FS, base string, m Meta, durable bool) error {
	f, err := fsys.Create(metaPath(base))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "version=%d\n", m.Version)
	fmt.Fprintf(w, "nodes=%d\n", m.N)
	fmt.Fprintf(w, "arcs=%d\n", m.Arcs)
	if m.Version >= 3 {
		fmt.Fprintf(w, "ntbytes=%d\n", m.NtBytes)
	}
	if m.Version >= 2 {
		fmt.Fprintf(w, "etbytes=%d\n", m.EtBytes)
	}
	if m.Version >= 5 {
		idorder := 0
		if m.IDOrder {
			idorder = 1
		}
		fmt.Fprintf(w, "idorder=%d\n", idorder)
	}
	if m.HasCRC {
		fmt.Fprintf(w, "ntcrc=%d\n", m.NtCRC)
		fmt.Fprintf(w, "etcrc=%d\n", m.EtCRC)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadMeta parses the header file for a graph: version 5, whose header
// must give both tables' sizes and whether the layout is id order; version
// 4 or 3, whose must give both sizes and not the order; version 2, whose
// must give the edge table's and not the node table's; or version 1, whose
// must give neither.
func ReadMeta(base string) (Meta, error) {
	var m Meta
	hasNtBytes, hasEtBytes, hasIDOrder := false, false, false
	data, err := os.ReadFile(metaPath(base))
	if err != nil {
		return m, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return m, fmt.Errorf("storage: malformed meta line %q", line)
		}
		x, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return m, fmt.Errorf("storage: meta value %q: %w", line, err)
		}
		// The header also arrives over the network (a follower's
		// checkpoint download): nothing in it is taken modulo 2^32.
		if x < 0 || (key != "arcs" && key != "ntbytes" && key != "etbytes" && x > math.MaxUint32) {
			return m, fmt.Errorf("storage: meta value %q out of range", line)
		}
		switch key {
		case "version":
			m.Version = int(x)
		case "nodes":
			m.N = uint32(x)
		case "arcs":
			m.Arcs = x
		case "ntbytes":
			m.NtBytes, hasNtBytes = x, true
		case "etbytes":
			m.EtBytes, hasEtBytes = x, true
		case "idorder":
			if x > 1 {
				return m, fmt.Errorf("storage: meta value %q is not 0 or 1", line)
			}
			m.IDOrder, hasIDOrder = x == 1, true
		case "ntcrc":
			m.NtCRC = uint32(x)
			m.HasCRC = true
		case "etcrc":
			m.EtCRC = uint32(x)
			m.HasCRC = true
		default:
			return m, fmt.Errorf("storage: unknown meta key %q", key)
		}
	}
	if m.Version < 1 || m.Version > FormatVersion {
		return m, fmt.Errorf("storage: unsupported format version %d", m.Version)
	}
	for _, size := range []struct {
		key       string
		has, want bool
	}{{"etbytes", hasEtBytes, m.Version >= 2}, {"ntbytes", hasNtBytes, m.Version >= 3}, {"idorder", hasIDOrder, m.Version >= 5}} {
		if size.has != size.want {
			word := map[bool]string{true: "with", false: "without"}[size.has]
			return m, fmt.Errorf("storage: version-%d meta %s %s", m.Version, word, size.key)
		}
	}
	if m.Version == 1 {
		if m.Arcs > math.MaxInt64/4 {
			return m, fmt.Errorf("storage: version-1 meta with %d arcs", m.Arcs)
		}
		m.EtBytes = 4 * m.Arcs
	}
	if m.Version <= 3 {
		m.IDOrder = true
	}
	// A record is one varint (its degree and form), led by its id's when
	// the layout is not id order and followed in version 5 by a
	// group-varint list's excess.
	least := int64(1)
	if !m.IDOrder {
		least++
	}
	most := least
	if m.Version >= 5 {
		most++
	}
	if m.Version <= 2 {
		m.NtBytes = legacyRecordSize * int64(m.N)
	} else if m.NtBytes < least*int64(m.N) || m.NtBytes > most*maxRecordLen*int64(m.N) {
		// A varint takes one to maxRecordLen bytes, so the table's size,
		// which the open holds the file to, bounds the node count the
		// index is sized from.
		return m, fmt.Errorf("storage: a %d-byte node table cannot hold %d records", m.NtBytes, m.N)
	}
	return m, nil
}

// Graph is a read handle over an on-disk graph. All reads are charged to
// the counter passed at Open time. Beyond its cache's frames and scratch
// reused across calls, a Graph holds the node table in memory from its
// first use on (nodeIndex: nt + n/4 bytes in id order, nt + 4n + n/4 +
// n/16 in any other).
type Graph struct {
	base  string
	meta  Meta
	codec listCodec
	nt    *CachedFile
	et    *CachedFile
	io    *stats.IOCounter
	idx   *nodeIndex // nil until the first read that needs a node record

	nbrBuf []byte // scratch for one encoded list
}

// list is where one node's list lies in the edge table and how it is
// stored: its byte offset and length, its degree, and its gap width, or
// groupVarint.
type list struct {
	off, size int64
	deg       uint32
	w         uint8
}

// index returns the node index, building it on first use from one
// sequential pass over the node table that fills no frame. The pass is
// charged ⌈nt/B⌉ reads, checks every block as a fill does (or, as the
// open's pass, records its checksum) and holds the records to what the
// header says of the table (nodeDecoder). A failed pass keeps no index:
// the next use makes it again.
func (g *Graph) index() (*nodeIndex, error) {
	if g.idx != nil {
		return g.idx, nil
	}
	nt := g.meta.NtBytes
	if g.meta.Version < FormatVersion {
		nt = 0 // older records, re-encoded
	}
	x := newIndex(g.codec, g.meta.N, nt, !g.meta.IDOrder)
	p, prev := uint32(0), int64(-1)
	keep := func(v uint32, l list) error {
		x.add(p, prev, v, l)
		p, prev = p+1, int64(v)
		return nil
	}
	dec := g.decoder()
	if err := g.nt.stream(func(blk []byte) error { return dec.feed(blk, keep) }); err != nil {
		return nil, err
	}
	if err := dec.done(keep); err != nil {
		return nil, err
	}
	if nt == 0 {
		x.recs = slices.Clone(x.recs) // drop append's slack
	}
	g.idx = x
	return x, nil
}

// Open opens the graph stored at base through cache, whose block size
// must be ctr's (nil: a cache of its own of defaultCacheBlocks frames),
// charging every read to ctr, and checks every block a later cache fill
// loads against a CRC32C the header vouches for — so no block that
// disagrees with the header is ever served, however long after open it is
// first fetched. The per-block checksums come from the sidecar when
// folding its granule checksums reproduces the header's whole-table ones:
// that costs the sidecar's blocks. Otherwise (no sidecar, or a stale,
// damaged or foreign one; a block size that is not a whole number of
// granules; a graph from an older builder) opening is the pass.
func Open(base string, ctr *stats.IOCounter, cache *BlockCache) (*Graph, error) {
	meta, err := ReadMeta(base)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewBlockCache(0, ctr.BlockSize())
	}
	nt, et, vouched := readSidecar(base, meta, cache.BlockSize(), ctr)
	g := &Graph{base: base, meta: meta, codec: codecOf(meta), io: ctr}
	if err := g.attach(cache, nt, et); err != nil {
		return nil, err
	}
	if !vouched {
		if err := g.pass(); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// attach opens both tables through cache with the given per-block
// checksums (nil: the first stream records them), each at the size the
// header implies.
func (g *Graph) attach(cache *BlockCache, ntCRCs, etCRCs []uint32) (err error) {
	table := func(path, name string, size int64, crcs []uint32) (*CachedFile, error) {
		t, err := cache.Open(path, crcs, g.io)
		if err != nil {
			return nil, err
		}
		if t.Size() != size {
			t.Close()
			return nil, fmt.Errorf("storage: %s table size %d, want %d", name, t.Size(), size)
		}
		return t, nil
	}
	if g.nt, err = table(nodePath(g.base), "node", g.meta.NtBytes, ntCRCs); err != nil {
		return err
	}
	if g.et, err = table(edgePath(g.base), "edge", g.meta.EtBytes, etCRCs); err != nil {
		g.nt.Close()
	}
	return err
}

// pass is the open of a graph no sidecar vouches for: both tables read
// once, front to back, recording the CRC32C of every block for the fills
// to come. The node table's pass builds the index on the way (its
// nodeDecoder holds it to the header), and the edge table's CRC32C must be the
// header's (headers from older builders carry none and pass unchecked).
func (g *Graph) pass() error {
	if _, err := g.index(); err != nil {
		return err
	}
	var crc uint32
	if err := g.et.stream(func(blk []byte) error {
		crc = crc32.Update(crc, castagnoli, blk)
		return nil
	}); err != nil {
		return err
	}
	if g.meta.HasCRC && crc != g.meta.EtCRC {
		return fmt.Errorf("storage: %s: edge table crc %08x, want %08x", edgePath(g.base), crc, g.meta.EtCRC)
	}
	return nil
}

// Reopen opens a second handle on the tables g reads, through a cache of
// defaultCacheBlocks frames of its own, charging g's counter, holding
// every block it loads to the checksums g's open vouched for and sharing
// g's node index once g has built it (an index is never written after
// its build): it reads nothing, the sidecar included. The handle keeps
// reading these files after a fold-back renames others over them (a
// pinned view's tables).
func (g *Graph) Reopen() (*Graph, error) {
	h := &Graph{base: g.base, meta: g.meta, codec: g.codec, io: g.io, idx: g.idx}
	if err := h.attach(NewBlockCache(0, g.et.cache.b), g.nt.crcs, g.et.crcs); err != nil {
		return nil, err
	}
	return h, nil
}

// Close releases the underlying files.
func (g *Graph) Close() error {
	err1 := g.nt.Close()
	err2 := g.et.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Base reports the path prefix the graph was opened from.
func (g *Graph) Base() string { return g.base }

// NumNodes reports n.
func (g *Graph) NumNodes() uint32 { return g.meta.N }

// NumArcs reports the number of stored arcs (2x the number of undirected
// edges).
func (g *Graph) NumArcs() int64 { return g.meta.Arcs }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.meta.Arcs / 2 }

// TableBytes reports the size of the node and the edge table, the bytes
// a rewrite of the graph writes besides its header and sidecar.
func (g *Graph) TableBytes() int64 { return g.meta.NtBytes + g.meta.EtBytes }

// IOCounter exposes the counter reads are charged to.
func (g *Graph) IOCounter() *stats.IOCounter { return g.io }

// record reports where node v's list lies, from the node index. No block
// is read once the index is built (the first use builds it: see index); a
// record whose list does not tile the edge table fails that build.
func (g *Graph) record(v uint32) (list, error) {
	if v >= g.meta.N {
		return list{}, fmt.Errorf("storage: node %d out of range [0,%d)", v, g.meta.N)
	}
	x, err := g.index()
	if err != nil {
		return list{}, err
	}
	return x.list(v), nil
}

// Degree reports node v's degree from the node index.
func (g *Graph) Degree(v uint32) (uint32, error) {
	l, err := g.record(v)
	return l.deg, err
}

// Neighbors loads nbr(v) from the edge table, appending into buf (which
// may be nil) and returning the filled slice. The returned slice is sorted
// ascending, as stored.
func (g *Graph) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
	l, err := g.record(v)
	if err != nil {
		return nil, err
	}
	return g.readList(v, l, buf)
}

// readList fetches and decodes node v's list l, whose place in the edge
// table the node table vouched for; its bytes stay in g.nbrBuf until the
// next call.
func (g *Graph) readList(v uint32, l list, buf []uint32) ([]uint32, error) {
	raw, err := g.rawList(l)
	if err != nil {
		return nil, err
	}
	nbrs, err := g.codec.decode(raw, l.deg, l.w, buf)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: node %d: %w", edgePath(g.base), v, err)
	}
	return nbrs, nil
}

// rawList reads the encoded list l into g.nbrBuf, grown geometrically,
// and returns its bytes, valid until the next call.
func (g *Graph) rawList(l list) ([]byte, error) {
	if cap(g.nbrBuf) < int(l.size) {
		g.nbrBuf = slices.Grow(g.nbrBuf, int(l.size))
	}
	raw := g.nbrBuf[:l.size]
	if err := g.et.ReadAt(raw, l.off); err != nil {
		return nil, err
	}
	return raw, nil
}

// Resident reports whether Neighbors(v) would be served from the cache
// without a read: v's encoded list is at most one block long and every
// block it spans is in a frame. It answers from the node index and the
// cache's key map, reads nothing and leaves the cache as it was (no
// reference bit, no hit or miss counted); before the first use has built
// the index it reports false.
func (g *Graph) Resident(v uint32) bool {
	x := g.idx
	if x == nil || v >= g.meta.N {
		return false
	}
	b := int64(g.et.cache.b)
	l := x.list(v)
	n := l.size
	if n > b {
		return false
	}
	if n == 0 {
		return true
	}
	return g.et.resident(l.off/b) && g.et.resident((l.off+n-1)/b)
}

// Positions implements graph.Source: every id's position in the layout,
// the order the tables store the lists in and every scan visits them. It
// is nil for a table in id order (versions 1 to 3, and 5 with idorder=1),
// and for any other the node index's own array, which the first call
// builds. A table whose index fails to build reports nil, and the scan
// that would use the positions fails on the same error.
func (g *Graph) Positions() []uint32 {
	if g.meta.IDOrder {
		return nil
	}
	x, err := g.index()
	if err != nil {
		return nil
	}
	return x.pos
}

// ScanDegrees streams (v, deg(v)) for all nodes, in layout order, from
// the node index: the first use's sequential pass over the node table,
// none after it.
func (g *Graph) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	x, err := g.index()
	if err != nil || g.meta.N == 0 {
		return err
	}
	w := x.at(0)
	for range g.meta.N {
		v, l := w.next()
		if err := fn(v, l.deg); err != nil {
			if graph.IsStop(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ScanDynamic performs the paper's partial sequential scan: it walks the
// positions from pmin to pmaxFn() inclusive in layout order (Pos),
// re-evaluating the bound after each position so that algorithms
// (SemiCore+/SemiCore*) can extend it while the scan is in flight,
// consults want(v) (nil means every node) for the node v at each, and
// for wanted nodes loads nbr(v) and invokes fn. Records come from the
// node index, decoded one after another, and the scan seeks directly
// between wanted lists, so only the edge blocks holding wanted lists are
// fetched. The neighbour slice passed to fn is reused across calls; fn
// must not retain it.
func (g *Graph) ScanDynamic(pmin uint32, pmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	n := g.meta.N
	if pmin >= n {
		return nil
	}
	x, err := g.index()
	if err != nil {
		return err
	}
	var nbrs []uint32
	w := x.at(pmin)
	for p := pmin; p <= pmaxFn() && p < n; p++ {
		if x.pos == nil {
			// In id order the node at p is p: only wanted records are
			// decoded, the walker sought to them.
			if want != nil && !want(p) {
				continue
			}
			w.seek(p)
		}
		v, l := w.next()
		if x.pos != nil && want != nil && !want(v) {
			continue
		}
		nbrs, err = g.readList(v, l, nbrs)
		if err != nil {
			return err
		}
		if err := fn(v, nbrs); err != nil {
			if graph.IsStop(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ScanVerified begins a scan of every list for a reader that must not
// take the tables on trust (a checkpoint about to copy them, a fold-back
// about to replace them): reads are charged to io from here on, not to
// the counter the graph was opened with, and the node table is read once
// front to back, every block held to its checksum — here, when the
// handle shares an index already built (Reopen), or else by the index's
// build at the scan's first record. A graph.ScanAll over the handle, or
// over an overlay of it, is the rest: it loads every edge block through
// the frames, each held to its checksum as any fill is.
func (g *Graph) ScanVerified(io *stats.IOCounter) error {
	g.io, g.nt.io, g.et.io = io, io, io
	if g.idx == nil {
		return nil
	}
	return g.nt.stream(func([]byte) error { return nil })
}
