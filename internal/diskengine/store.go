// Package diskengine is the base driver (dyngraph.Base) for graphs whose
// adjacency should not be read one block at a time from one file: the
// adjacency lives in contiguous node-range partition files (laid out by
// internal/emcore's range planner) and is read through a bounded CLOCK
// block cache (storage.BlockCache), so however large the graph, at most
// the configured number of cache frames is ever resident. The update
// buffer over it, and every rule about it, is dyngraph.Graph's; when
// that buffer fills, Rewrite replaces only the partitions an edit landed
// in, EMCore-style (sequential read + sequential write of just those
// partitions, new-generation files swapped in). A kcore.Graph opened
// with OpenOptions.Partitions sits on this driver and is decomposed,
// maintained and served by exactly the code that runs over the CSR
// tables — so cores are bit-identical on any update stream.
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
// and every pinned view holds another. A rewrite drops the store's
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

// Options tunes a Store.
type Options struct {
	// Dir is the partition working directory, owned exclusively by the
	// store: it is wiped at Open (partitions are a rebuildable serving
	// projection, not durable state). Empty selects base+".parts",
	// which is additionally removed at Close.
	Dir string
	// CacheBlocks bounds resident adjacency to CacheBlocks blocks;
	// <=0 selects 1024.
	CacheBlocks int
	// PartitionArcs is the target arcs per partition; <=0 selects
	// max(arcs/8, 4096).
	PartitionArcs int64
}

// Store is the partition driver: partition files behind a bounded block
// cache, implementing dyngraph.Base.
//
// Every read and rewrite runs on one goroutine (the one that owns the
// dyngraph.Graph above; under internal/serve, the writer); the atomic
// gauges exist only so DiskStats can be read concurrently.
type Store struct {
	dir      string
	ownedDir bool
	n        uint32
	io       *stats.IOCounter
	cache    *storage.BlockCache
	parts    []*part

	rawBuf  []byte   // on-disk bytes of the list being decoded
	scratch []uint32 // the list a scan or rewrite is looking at

	// Concurrent-read gauges for DiskStats.
	merges      atomic.Int64
	mergedParts atomic.Int64
	mergedBytes atomic.Int64
}

// Open lays the graph at base out into partition files under o.Dir and
// opens them through a fresh block cache of ctr's block size. The source
// graph is streamed once, sequentially; it is closed again before Open
// returns. Reads through the cache, the build and every rewrite are
// charged to ctr.
func Open(base string, ctr *stats.IOCounter, o Options) (*Store, error) {
	dir, owned := o.Dir, false
	if dir == "" {
		dir, owned = base+".parts", true
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cacheBlocks := o.CacheBlocks
	if cacheBlocks <= 0 {
		cacheBlocks = 1024
	}
	st := &Store{
		dir:      dir,
		ownedDir: owned,
		io:       ctr,
		cache:    storage.NewBlockCache(cacheBlocks, ctr.BlockSize()),
	}
	if err := st.build(base, o.PartitionArcs); err != nil {
		st.Close(nil, nil)
		return nil, err
	}
	return st, nil
}

func (st *Store) build(base string, partArcs int64) error {
	src, err := storage.Open(base, st.io)
	if err != nil {
		return err
	}
	defer src.Close()
	st.n = src.NumNodes()
	if partArcs <= 0 {
		partArcs = max(src.NumArcs()/8, 4096)
	}
	ranges, err := emcore.PlanRanges(src, partArcs)
	if err != nil {
		return err
	}
	for _, r := range ranges {
		p := &part{lo: r.Lo, hi: r.Hi, arcs: r.Arcs}
		err := st.writePart(p, 0, func(fn func(v uint32, nbrs []uint32) error) error {
			return src.Scan(r.Lo, r.Hi-1, nil, fn)
		})
		if err != nil {
			return err
		}
		st.parts = append(st.parts, p)
	}
	return nil
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

// Close releases the partition files and, if the store chose its
// working directory itself, removes it. Buffered edits are discarded —
// the partitions are a serving projection of the base graph plus the
// applied updates, rebuilt at open; durability is the WAL layer's job.
func (st *Store) Close(_, _ map[uint32][]uint32) error {
	var first error
	for _, p := range st.parts {
		if p.f != nil {
			if err := p.f.Close(); err != nil && first == nil {
				first = err
			}
			p.f = nil
		}
	}
	if st.ownedDir {
		if err := os.RemoveAll(st.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumNodes reports n (fixed at build, like every backend's).
func (st *Store) NumNodes() uint32 { return st.n }

// NumArcs reports the arcs stored in the current partition generations.
func (st *Store) NumArcs() int64 {
	var arcs int64
	for _, p := range st.parts {
		arcs += p.arcs
	}
	return arcs
}

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

// Neighbors reads v's list through the cache, appending into buf.
func (st *Store) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
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

// Degree reads v's degree (one node-record read through the cache).
func (st *Store) Degree(v uint32) (uint32, error) {
	p, err := st.locate(v)
	if err != nil {
		return 0, err
	}
	_, deg, err := p.record(p.f, v)
	return deg, err
}

// Rewrite replaces every partition ins or del touch — a sequential read
// of the old partition merged with its edits, a sequential write of the
// new generation, an in-memory swap. Untouched partitions keep their
// files and their cached blocks; this is the EMCore write-back cycle
// confined to the dirty ranges. The rewritten files are a serving
// projection, not durable state, so no fsync/rename dance is needed: a
// crash loses the work dir and the store is rebuilt at next open.
func (st *Store) Rewrite(ins, del map[uint32][]uint32) error {
	touched := make(map[*part]bool)
	for _, m := range []map[uint32][]uint32{ins, del} {
		for v := range m {
			p, err := st.locate(v)
			if err != nil {
				return err
			}
			touched[p] = true
		}
	}

	var bytes int64
	for i, p := range st.parts {
		if !touched[p] {
			continue
		}
		np := &part{lo: p.lo, hi: p.hi}
		err := st.writePart(np, p.gen+1, func(fn func(v uint32, nbrs []uint32) error) error {
			var out []uint32
			for v := p.lo; v < p.hi; v++ {
				disk, err := st.Neighbors(v, st.scratch[:0])
				st.scratch = disk[:0]
				if err != nil {
					return err
				}
				out = dyngraph.Merge(disk, ins[v], del[v], out)
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

	st.merges.Add(1)
	st.mergedParts.Add(int64(len(touched)))
	st.mergedBytes.Add(bytes)
	return nil
}

// DiskStats snapshots the cache and rewrite gauges; safe to call
// concurrently with the owning goroutine. The buffer's fill and limit
// are the caller's to add (kcore.Graph.DiskStats).
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
		Merges:           st.merges.Load(),
		MergedPartitions: st.mergedParts.Load(),
		MergedBytes:      st.mergedBytes.Load(),
	}
}

// ScanDegrees implements graph.Source over the partitions.
func (st *Store) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	for _, p := range st.parts {
		for v := p.lo; v < p.hi; v++ {
			var rec [nodeRecSize]byte
			if err := p.f.ReadAt(rec[:], p.recOff(v)); err != nil {
				return err
			}
			if err := fn(v, binary.LittleEndian.Uint32(rec[8:12])); err != nil {
				if graph.IsStop(err) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// Scan implements graph.Source over the partitions.
func (st *Store) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return st.ScanDynamic(vmin, func() uint32 { return vmax }, want, fn)
}

// ScanDynamic implements graph.Source over the partitions: skipped
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
		nbrs, err := st.Neighbors(v, st.scratch[:0])
		st.scratch = nbrs[:0]
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

var _ dyngraph.Base = (*Store)(nil)
