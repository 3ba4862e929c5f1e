// Package diskengine serves core decomposition for graphs whose
// adjacency does not fit in RAM — the serving-stack realisation of the
// paper's semi-external model. Adjacency lives on disk in contiguous
// node-range partition files (laid out by internal/emcore's range
// planner) and is read through a bounded CLOCK block cache
// (storage.BlockCache): however large the graph, at most the configured
// number of cache frames is ever resident. In memory stay only the
// O(n) core/cnt arrays — exactly what the semi-external model budgets —
// plus a small delta overlay of recently inserted/deleted edges.
// Updates buffer in the overlay; once it passes a threshold the touched
// partitions are rewritten EMCore-style (sequential read + sequential
// write of just those partitions, new-generation files swapped in).
// Queries and incremental repairs run over cached blocks + overlay
// through the same maintain.Session window scans the in-memory path
// uses, published through the same serve.ConcurrentSession writer — so
// cores are bit-identical to the mem backend on any update stream.
//
// Every partition file carries per-block CRC32C checksums
// (storage.BlockWriter.TrackBlockCRCs): a bit flip or truncation on
// disk surfaces as a read-time error that fails the maintenance
// session — never as silently wrong cores.
package diskengine

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"kcore/internal/dyngraph"
	"kcore/internal/emcore"
	"kcore/internal/graph"
	"kcore/internal/maintain"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// nodeRecSize is the bytes per partition node record: a uint64
// partition-local arc offset plus a uint32 degree (the storage blockfile
// node-record layout).
const nodeRecSize = 12

// part is one disk-resident contiguous node range [lo, hi). Its file
// holds the edge region (arcs*4 bytes of sorted global neighbour ids)
// followed by the node-record region ((hi-lo)*nodeRecSize bytes), so the
// record of node v sits at arcs*4 + (v-lo)*nodeRecSize.
//
// A partition generation is immutable once written, and reference
// counted: the store holds one reference while the generation is current
// and every pinned View holds another. A merge drops the store's
// reference to the generation it replaces; the file is unlinked when the
// last reference goes, so a view can keep streaming a generation that is
// no longer current.
type part struct {
	lo, hi uint32
	arcs   int64
	gen    int // file generation, bumped per merge rewrite
	path   string
	crcs   []uint32            // per-block CRC32C of the file, recorded at write time
	f      *storage.CachedFile // the store's cached handle; views open their own
	refs   atomic.Int32
}

func (p *part) recOff(v uint32) int64 {
	return p.arcs*4 + int64(v-p.lo)*nodeRecSize
}

// unref drops one reference, unlinking the file with the last.
func (p *part) unref() {
	if p.refs.Add(-1) == 0 {
		os.Remove(p.path)
	}
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Dir is the partition working directory (required; owned by the
	// caller).
	Dir string
	// CacheBlocks is the block-cache frame budget; <=0 selects 1024.
	CacheBlocks int
	// PartitionArcs is the target arcs per partition; <=0 selects
	// max(arcs/8, 4096).
	PartitionArcs int64
	// OverlayArcs is the buffered-arc threshold that triggers a merge of
	// the overlay into the touched partitions; <=0 selects 1<<16.
	OverlayArcs int
	// IO receives block accounting; nil allocates one at BlockSize 4096.
	IO *stats.IOCounter
}

// Store is the disk-backed dynamic graph: partition files behind a
// bounded block cache plus the in-memory insert/delete overlay. It
// implements maintain.Graph, so the paper's SemiInsert*/SemiDelete*
// maintenance runs over it unchanged.
//
// All mutation and all reads run on one goroutine (the serve writer);
// the atomic gauges exist only so Stats/DiskStats can be read
// concurrently.
type Store struct {
	dir   string
	n     uint32
	arcs  int64 // current logical arc count (disk + overlay)
	io    *stats.IOCounter
	cache *storage.BlockCache
	parts []*part

	ins, del    map[uint32][]uint32 // sorted overlay neighbour lists
	overlayArcs int
	limit       int

	rawBuf   []byte // on-disk bytes of the list being decoded
	scratch  []uint32
	mergeBuf []uint32
	nbrBuf   []uint32

	// Concurrent-read gauges for DiskStats.
	ovGauge     atomic.Int64
	merges      atomic.Int64
	mergedParts atomic.Int64
	mergedBytes atomic.Int64
}

// BuildStore lays the graph at base out into partition files under
// o.Dir and opens them through a fresh block cache. The source graph is
// streamed once, sequentially; it is closed again before BuildStore
// returns.
func BuildStore(base string, o StoreOptions) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("diskengine: StoreOptions.Dir is required")
	}
	ctr := o.IO
	if ctr == nil {
		ctr = stats.NewIOCounter(4096)
	}
	src, err := storage.Open(base, ctr)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	partArcs := o.PartitionArcs
	if partArcs <= 0 {
		partArcs = src.NumArcs() / 8
		if partArcs < 4096 {
			partArcs = 4096
		}
	}
	limit := o.OverlayArcs
	if limit <= 0 {
		limit = 1 << 16
	}
	cacheBlocks := o.CacheBlocks
	if cacheBlocks <= 0 {
		cacheBlocks = 1024
	}

	st := &Store{
		dir:   o.Dir,
		n:     src.NumNodes(),
		arcs:  src.NumArcs(),
		io:    ctr,
		cache: storage.NewBlockCache(cacheBlocks, ctr.BlockSize()),
		ins:   make(map[uint32][]uint32),
		del:   make(map[uint32][]uint32),
		limit: limit,
	}

	ranges, err := emcore.PlanRanges(src, partArcs)
	if err != nil {
		return nil, err
	}
	for _, r := range ranges {
		p := &part{lo: r.Lo, hi: r.Hi, arcs: r.Arcs}
		err := st.writePart(p, 0, func(fn func(v uint32, nbrs []uint32) error) error {
			return src.Scan(r.Lo, r.Hi-1, nil, fn)
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		st.parts = append(st.parts, p)
	}
	return st, nil
}

// writePart streams (v, nbrs) records for [p.lo, p.hi) from scan into a
// generation-gen partition file: edge region first, node records after
// (their arc offsets are only known once the lists are written). It
// fills in the rest of p and opens it through the block cache, holding
// the store's reference.
func (st *Store) writePart(p *part, gen int, scan func(fn func(v uint32, nbrs []uint32) error) error) error {
	path := filepath.Join(st.dir, fmt.Sprintf("part-%d.g%d", p.lo, gen))
	w, err := storage.CreateBlockWriter(path, st.io)
	if err != nil {
		return err
	}
	w.TrackBlockCRCs()
	nt := make([]byte, 0, int64(p.hi-p.lo)*nodeRecSize)
	var rec [nodeRecSize]byte
	var buf []byte
	var arcs int64
	next := p.lo
	emit := func(v uint32, nbrs []uint32) error {
		for ; next < v; next++ { // holes: scan callbacks may skip nothing, but be safe
			binary.LittleEndian.PutUint64(rec[0:8], uint64(arcs))
			binary.LittleEndian.PutUint32(rec[8:12], 0)
			nt = append(nt, rec[:]...)
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(arcs))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(nbrs)))
		nt = append(nt, rec[:]...)
		next = v + 1
		if need := 4 * len(nbrs); cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:4*len(nbrs)]
		for i, x := range nbrs {
			binary.LittleEndian.PutUint32(b[4*i:], x)
		}
		arcs += int64(len(nbrs))
		_, err := w.Write(b)
		return err
	}
	if err := scan(emit); err != nil {
		w.Close()
		os.Remove(path)
		return err
	}
	for ; next < p.hi; next++ {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(arcs))
		binary.LittleEndian.PutUint32(rec[8:12], 0)
		nt = append(nt, rec[:]...)
	}
	if _, err := w.Write(nt); err != nil {
		w.Close()
		os.Remove(path)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	p.path = path
	p.arcs = arcs
	p.gen = gen
	p.crcs = slices.Clone(w.BlockCRCs())
	if p.f, err = st.cache.Open(path, p.crcs, st.io); err != nil {
		os.Remove(path)
		return err
	}
	p.refs.Store(1)
	return nil
}

// Close releases the partition files. Overlay contents are discarded —
// the store is a serving projection of the base graph plus the applied
// updates, rebuilt at open; durability is the WAL layer's job.
func (st *Store) Close() error {
	var first error
	for _, p := range st.parts {
		if p.f != nil {
			if err := p.f.Close(); err != nil && first == nil {
				first = err
			}
			p.f = nil
		}
	}
	return first
}

// Cache exposes the block cache (for stats and tests).
func (st *Store) Cache() *storage.BlockCache { return st.cache }

// IOCounter exposes the counter charged by partition reads and merges.
func (st *Store) IOCounter() *stats.IOCounter { return st.io }

// Partitions reports the partition count (fixed at build).
func (st *Store) Partitions() int { return len(st.parts) }

// NumNodes reports n (fixed at build, like every backend's).
func (st *Store) NumNodes() uint32 { return st.n }

// NumArcs reports the current logical arc count.
func (st *Store) NumArcs() int64 { return st.arcs }

// NumEdges reports the current logical undirected edge count.
func (st *Store) NumEdges() int64 { return st.arcs / 2 }

// OverlayArcs reports the buffered-arc count (writer-goroutine view).
func (st *Store) OverlayArcs() int { return st.overlayArcs }

// locate returns the partition containing v.
func (st *Store) locate(v uint32) (*part, error) {
	i := sort.Search(len(st.parts), func(i int) bool { return st.parts[i].hi > v })
	if i >= len(st.parts) || v < st.parts[i].lo {
		return nil, fmt.Errorf("diskengine: node %d outside every partition", v)
	}
	return st.parts[i], nil
}

// record reads node v's (partition-local arc offset, degree) through f,
// a handle on p's file.
func (p *part) record(f *storage.CachedFile, v uint32) (off int64, deg uint32, err error) {
	var rec [nodeRecSize]byte
	if err := f.ReadAt(rec[:], p.recOff(v)); err != nil {
		return 0, 0, err
	}
	off = int64(binary.LittleEndian.Uint64(rec[0:8]))
	deg = binary.LittleEndian.Uint32(rec[8:12])
	if off > p.arcs || off+int64(deg) > p.arcs {
		return 0, 0, fmt.Errorf("diskengine: node %d record [%d,+%d) outside partition of %d arcs (corrupt)", v, off, deg, p.arcs)
	}
	return off, deg, nil
}

// readList reads the deg arcs at arc offset off through f into buf,
// with *raw as the reusable byte scratch the on-disk form lands in.
func readList(f *storage.CachedFile, off int64, deg uint32, raw *[]byte, buf []uint32) ([]uint32, error) {
	if deg == 0 {
		return buf[:0], nil
	}
	if need := 4 * int(deg); cap(*raw) < need {
		*raw = make([]byte, need)
	}
	b := (*raw)[:4*deg]
	if err := f.ReadAt(b, off*4); err != nil {
		return nil, err
	}
	if cap(buf) < int(deg) {
		buf = make([]uint32, deg)
	}
	buf = buf[:deg]
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return buf, nil
}

// diskNeighbors reads v's on-disk list (pre-overlay), appending into buf.
func (st *Store) diskNeighbors(v uint32, buf []uint32) ([]uint32, error) {
	p, err := st.locate(v)
	if err != nil {
		return nil, err
	}
	off, deg, err := p.record(p.f, v)
	if err != nil {
		return nil, err
	}
	return readList(p.f, off, deg, &st.rawBuf, buf)
}

// neighbors returns v's merged (disk + overlay) list in st.mergeBuf.
func (st *Store) neighbors(v uint32) ([]uint32, error) {
	disk, err := st.diskNeighbors(v, st.scratch[:0])
	st.scratch = disk[:0]
	if err != nil {
		return nil, err
	}
	ins, del := st.ins[v], st.del[v]
	if len(ins) == 0 && len(del) == 0 {
		return disk, nil
	}
	st.mergeBuf = dyngraph.Merge(disk, ins, del, st.mergeBuf)
	return st.mergeBuf, nil
}

// Neighbors returns the merged adjacency of v, valid until the next
// store operation.
func (st *Store) Neighbors(v uint32) ([]uint32, error) {
	nbrs, err := st.neighbors(v)
	if err != nil {
		return nil, err
	}
	st.nbrBuf = append(st.nbrBuf[:0], nbrs...)
	return st.nbrBuf, nil
}

// HasEdge reports whether {u,v} is live: overlay first, then one
// indexed partition read.
func (st *Store) HasEdge(u, v uint32) (bool, error) {
	if dyngraph.Contains(st.del[u], v) {
		return false, nil
	}
	if dyngraph.Contains(st.ins[u], v) {
		return true, nil
	}
	disk, err := st.diskNeighbors(u, st.scratch[:0])
	st.scratch = disk[:0]
	if err != nil {
		return false, err
	}
	return dyngraph.Contains(disk, v), nil
}

func (st *Store) checkPair(u, v uint32) error {
	if u >= st.n || v >= st.n {
		return fmt.Errorf("diskengine: edge (%d,%d) out of range n=%d", u, v, st.n)
	}
	if u == v {
		return fmt.Errorf("diskengine: self-loop (%d,%d)", u, v)
	}
	return nil
}

// InsertEdge buffers the insertion of {u,v}; inserting a present edge or
// a self-loop is an error. A full overlay triggers a partition merge.
func (st *Store) InsertEdge(u, v uint32) error {
	if err := st.checkPair(u, v); err != nil {
		return err
	}
	present, err := st.HasEdge(u, v)
	if err != nil {
		return err
	}
	if present {
		return fmt.Errorf("diskengine: edge (%d,%d) already present", u, v)
	}
	return st.insertTrusted(u, v)
}

// DeleteEdge buffers the deletion of {u,v}; deleting an absent edge is
// an error.
func (st *Store) DeleteEdge(u, v uint32) error {
	if err := st.checkPair(u, v); err != nil {
		return err
	}
	present, err := st.HasEdge(u, v)
	if err != nil {
		return err
	}
	if !present {
		return fmt.Errorf("diskengine: edge (%d,%d) not present", u, v)
	}
	return st.deleteTrusted(u, v)
}

func (st *Store) insertTrusted(u, v uint32) error {
	// An insert cancels a buffered delete of the same edge.
	if dyngraph.Contains(st.del[u], v) {
		st.removeBuffered(st.del, u, v)
	} else {
		st.addBuffered(st.ins, u, v)
	}
	st.arcs += 2
	return st.maybeMerge()
}

func (st *Store) deleteTrusted(u, v uint32) error {
	if dyngraph.Contains(st.ins[u], v) {
		st.removeBuffered(st.ins, u, v)
	} else {
		st.addBuffered(st.del, u, v)
	}
	st.arcs -= 2
	return st.maybeMerge()
}

func (st *Store) addBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = dyngraph.InsertSorted(m[u], v)
	m[v] = dyngraph.InsertSorted(m[v], u)
	st.overlayArcs += 2
	st.ovGauge.Store(int64(st.overlayArcs))
}

func (st *Store) removeBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = dyngraph.RemoveSorted(m[u], v)
	m[v] = dyngraph.RemoveSorted(m[v], u)
	if len(m[u]) == 0 {
		delete(m, u)
	}
	if len(m[v]) == 0 {
		delete(m, v)
	}
	st.overlayArcs -= 2
	st.ovGauge.Store(int64(st.overlayArcs))
}

func (st *Store) maybeMerge() error {
	if st.overlayArcs <= st.limit {
		return nil
	}
	return st.MergeOverlay()
}

// MergeOverlay rewrites every partition the overlay touches — a
// sequential read of the old partition merged with its overlay entries,
// a sequential write of the new generation, an in-memory swap — then
// clears the overlay. Untouched partitions keep their files and their
// cached blocks; this is the EMCore write-back cycle confined to the
// dirty ranges. The rewritten files are a serving projection, not
// durable state, so no fsync/rename dance is needed: a crash loses the
// work dir and the store is rebuilt at next open.
func (st *Store) MergeOverlay() error {
	if st.overlayArcs == 0 {
		return nil
	}
	touched := make(map[int]bool)
	mark := func(m map[uint32][]uint32) error {
		for v := range m {
			i := sort.Search(len(st.parts), func(i int) bool { return st.parts[i].hi > v })
			if i >= len(st.parts) || v < st.parts[i].lo {
				return fmt.Errorf("diskengine: overlay node %d outside every partition", v)
			}
			touched[i] = true
		}
		return nil
	}
	if err := mark(st.ins); err != nil {
		return err
	}
	if err := mark(st.del); err != nil {
		return err
	}

	var bytes int64
	for i := range st.parts {
		if !touched[i] {
			continue
		}
		p := st.parts[i]
		np := &part{lo: p.lo, hi: p.hi}
		err := st.writePart(np, p.gen+1, func(fn func(v uint32, nbrs []uint32) error) error {
			var out []uint32
			for v := p.lo; v < p.hi; v++ {
				disk, err := st.diskNeighbors(v, st.scratch[:0])
				st.scratch = disk[:0]
				if err != nil {
					return err
				}
				out = dyngraph.Merge(disk, st.ins[v], st.del[v], out)
				if err := fn(v, out); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.f.Close()
		p.unref()
		st.parts[i] = np
		bytes += np.arcs*4 + int64(np.hi-np.lo)*nodeRecSize
	}

	st.ins = make(map[uint32][]uint32)
	st.del = make(map[uint32][]uint32)
	st.overlayArcs = 0
	st.ovGauge.Store(0)
	st.merges.Add(1)
	st.mergedParts.Add(int64(len(touched)))
	st.mergedBytes.Add(bytes)
	return nil
}

// DiskStats snapshots the cache, overlay and merge gauges; safe to call
// concurrently with the writer goroutine.
func (st *Store) DiskStats() stats.DiskSnapshot {
	cs := st.cache.Stats()
	return stats.DiskSnapshot{
		Partitions:       len(st.parts),
		CacheBlocks:      cs.Blocks,
		CacheBlockSize:   cs.BlockSize,
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		CacheEvictions:   cs.Evictions,
		CacheHitRate:     cs.HitRate(),
		OverlayArcs:      st.ovGauge.Load(),
		OverlayLimit:     st.limit,
		Merges:           st.merges.Load(),
		MergedPartitions: st.mergedParts.Load(),
		MergedBytes:      st.mergedBytes.Load(),
	}
}

// ScanDegrees implements graph.Source over the merged view.
func (st *Store) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	for _, p := range st.parts {
		for v := p.lo; v < p.hi; v++ {
			var rec [nodeRecSize]byte
			if err := p.f.ReadAt(rec[:], p.recOff(v)); err != nil {
				return err
			}
			d := int64(binary.LittleEndian.Uint32(rec[8:12]))
			d += int64(len(st.ins[v])) - int64(len(st.del[v]))
			if err := fn(v, uint32(d)); err != nil {
				if graph.IsStop(err) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// Scan implements graph.Source over the merged view.
func (st *Store) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return st.ScanDynamic(vmin, func() uint32 { return vmax }, want, fn)
}

// ScanDynamic implements graph.Source over the merged view: skipped
// nodes cost no I/O (their records are simply not read), wanted nodes
// cost the record read plus the list blocks — the cache absorbing
// whatever locality the window has.
func (st *Store) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	if st.n == 0 {
		return nil
	}
	for v := vmin; v <= vmaxFn() && v < st.n; v++ {
		if want != nil && !want(v) {
			continue
		}
		nbrs, err := st.neighbors(v)
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

var (
	_ maintain.Graph = (*Store)(nil)
	_ graph.Source   = (*Store)(nil)
)
