package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync/atomic"

	"kcore/internal/stats"
)

// BlockCache is a bounded CLOCK cache of fixed-size file blocks shared
// by every CachedFile opened through it. It is a graph's whole memory
// budget for adjacency: at most Blocks frames of BlockSize bytes are ever
// resident, however large the files behind them grow.
//
// Concurrency: all lookups and loads happen on one goroutine (a graph has
// one reader at a time; under internal/serve, the writer), so the frame
// table needs no lock; the hit/miss/eviction counters are atomic because
// Stats is read concurrently by /stats handlers.
type BlockCache struct {
	b      int
	frames []cacheFrame
	hand   int
	index  map[blockKey]int
	nextID uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type blockKey struct {
	file  uint64
	block int64
}

type cacheFrame struct {
	key  blockKey
	buf  []byte // allocated by the frame's first fill
	n    int    // valid bytes (short for a file's final block)
	ref  bool
	live bool
}

// defaultCacheBlocks is the frame count a budget of 0 selects. With the
// node table in memory the frames hold edge blocks only, and a sequential
// pass reads the same through two frames; what 64 buy is the re-reads of
// hub lists that SemiInsert* and SemiCore*'s partial passes revisit
// (measured in docs/ARCHITECTURE.md, "Block readers: what a cache buys").
const defaultCacheBlocks = 64

// NewBlockCache builds a cache of the given frame count and block size.
// A budget below one frame selects defaultCacheBlocks.
func NewBlockCache(blocks, blockSize int) *BlockCache {
	if blocks < 1 {
		blocks = defaultCacheBlocks
	}
	return &BlockCache{
		b:      blockSize,
		frames: make([]cacheFrame, blocks),
		index:  make(map[blockKey]int, blocks),
	}
}

// BlockSize reports the cache's block size in bytes.
func (c *BlockCache) BlockSize() int { return c.b }

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Blocks    int   `json:"blocks"`
	BlockSize int   `json:"block_size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters; safe to call concurrently with reads.
func (c *BlockCache) Stats() CacheStats {
	return CacheStats{
		Blocks:    len(c.frames),
		BlockSize: c.b,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// grab returns the index of a free frame, evicting the CLOCK victim when
// every frame is live: the hand sweeps, demoting referenced frames, and
// claims the first unreferenced one.
func (c *BlockCache) grab() int {
	for {
		fr := &c.frames[c.hand]
		idx := c.hand
		c.hand = (c.hand + 1) % len(c.frames)
		if fr.live && fr.ref {
			fr.ref = false
			continue
		}
		if fr.live {
			delete(c.index, fr.key)
			fr.live = false
			c.evictions.Add(1)
		}
		return idx
	}
}

// drop invalidates every cached block of file id (on file close: the
// tables a rewrite replaced leave the cache here).
func (c *BlockCache) drop(id uint64) {
	for key, idx := range c.index {
		if key.file == id {
			c.frames[idx].live = false
			c.frames[idx].ref = false
			delete(c.index, key)
		}
	}
}

// CachedFile reads a file through a shared BlockCache, charging one read
// I/O per block actually fetched from disk. Every fetched block is
// verified against its CRC32C before it enters the cache: a bit flip or a
// torn block surfaces as an error at read time, never as silently wrong
// bytes.
type CachedFile struct {
	*blockFile
	id    uint64
	cache *BlockCache
	last  int // the frame the previous lookup was served from
}

// Open opens path for cached reading held to crcs (openBlockFile); a file
// opened with none must be read whole by its reader before its first fill.
func (c *BlockCache) Open(path string, crcs []uint32, ctr *stats.IOCounter) (*CachedFile, error) {
	bf, err := openBlockFile(path, c.b, crcs, ctr)
	if err != nil {
		return nil, err
	}
	c.nextID++
	return &CachedFile{blockFile: bf, id: c.nextID, cache: c}, nil
}

// reader returns a Reader of the whole file, outside the frames.
func (cf *CachedFile) reader() *Reader { return &Reader{blockFile: cf.blockFile} }

// Close invalidates the file's cached blocks and closes it.
func (cf *CachedFile) Close() error {
	cf.cache.drop(cf.id)
	return cf.f.Close()
}

// resident reports whether block id is in a frame. It is no lookup: it
// sets no reference bit and counts no hit or miss.
func (cf *CachedFile) resident(id int64) bool {
	_, ok := cf.cache.index[blockKey{file: cf.id, block: id}]
	return ok
}

// block returns the valid bytes of block id, a block of the file, from
// the cache on a hit, loading (and verifying) from disk on a miss. The
// returned slice aliases the cache frame and is only valid until the
// next cache operation.
func (cf *CachedFile) block(id int64) ([]byte, error) {
	c := cf.cache
	key := blockKey{file: cf.id, block: id}
	// Most lookups want the block the previous one did (short reads in a
	// row, a list that starts where the last one ended): look there
	// before hashing.
	idx, ok := cf.last, c.frames[cf.last].live && c.frames[cf.last].key == key
	if !ok {
		idx, ok = c.index[key]
	}
	if ok {
		fr := &c.frames[idx]
		fr.ref = true
		cf.last = idx
		c.hits.Add(1)
		return fr.buf[:fr.n], nil
	}
	c.misses.Add(1)
	off := id * int64(c.b)
	n := min(int64(c.b), cf.size-off)
	idx = c.grab()
	fr := &c.frames[idx]
	if fr.buf == nil {
		fr.buf = make([]byte, c.b)
	}
	if err := cf.read(fr.buf[:n], off, nil); err != nil {
		return nil, err
	}
	fr.key = key
	fr.n = int(n)
	fr.ref = true
	fr.live = true
	c.index[key] = idx
	cf.last = idx
	return fr.buf[:n], nil
}

// ReadAt fills p with the bytes at offset off, fetching blocks through
// the cache as needed.
func (cf *CachedFile) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > cf.size {
		return fmt.Errorf("storage: read [%d,%d) outside %s of size %d", off, off+int64(len(p)), cf.path, cf.size)
	}
	cf.io.AddReadBytes(int64(len(p)))
	b := int64(cf.cache.b)
	for len(p) > 0 {
		id := off / b
		blk, err := cf.block(id)
		if err != nil {
			return err
		}
		n := copy(p, blk[off-id*b:])
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// blockFile is a file read in b-byte blocks, each held to its CRC32C in
// crcs (nil until a Reader records them), every read charged to io.
type blockFile struct {
	f    *os.File
	path string
	size int64
	b    int
	crcs []uint32
	io   *stats.IOCounter
}

// openBlockFile opens path for counted reading in b-byte blocks. crcs,
// when non-nil, must hold one CRC32C per block: a truncated or grown
// file fails here.
func openBlockFile(path string, b int, crcs []uint32, ctr *stats.IOCounter) (*blockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && crcs != nil && int64(len(crcs)) != (fi.Size()+int64(b)-1)/int64(b) {
		err = fmt.Errorf("storage: %s: %d bytes on disk but %d block checksums recorded (truncated or resized)", path, fi.Size(), len(crcs))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &blockFile{f: f, path: path, size: fi.Size(), b: b, crcs: crcs, io: ctr}, nil
}

// read fills p, whole blocks from offset off on, with one system call,
// charges each block as one read and holds it to its checksum, or, on a
// file without checksums, appends it to rec.
func (bf *blockFile) read(p []byte, off int64, rec *[]uint32) error {
	if n, err := bf.f.ReadAt(p, off); n != len(p) {
		if err == nil || err == io.EOF {
			err = fmt.Errorf("storage: short block read on %s: got %d want %d at off %d (truncated)", bf.path, n, len(p), off)
		}
		return err
	}
	b := int64(bf.b)
	bf.io.AddReadBlocks((int64(len(p)) + b - 1) / b)
	for id := off / b; len(p) > 0; id++ {
		blk := p[:min(bf.b, len(p))]
		p = p[len(blk):]
		if got := crc32.Checksum(blk, castagnoli); bf.crcs == nil {
			*rec = append(*rec, got)
		} else if got != bf.crcs[id] {
			return fmt.Errorf("storage: block %d of %s corrupt: crc %08x want %08x", id, bf.path, got, bf.crcs[id])
		}
	}
	return nil
}

// A Reader reads a block file front to back, the one sequential reader
// of tables, sort runs and EMCore partitions: FlushBlocks blocks per
// system call, outside any frames, each charged as one read and held to
// its checksum, or, on a file that came with none (the open's pass),
// recorded for the file to keep once the last block is read.
type Reader struct {
	*blockFile
	rec []uint32 // the checksums recorded so far
	buf []byte   // buf[pos:] is read and not yet returned
	pos int
	off int64  // where the next read starts, on a block boundary
	sum uint32 // the CRC32C of the bytes before off
}

// OpenReader opens path, a file of ctr's blocks, for one front-to-back
// read held to crcs, its writer's BlockCRCs.
func OpenReader(path string, crcs []uint32, ctr *stats.IOCounter) (*Reader, error) {
	bf, err := openBlockFile(path, ctr.BlockSize(), crcs, ctr)
	if err != nil {
		return nil, err
	}
	return &Reader{blockFile: bf}, nil
}

// Close closes the file.
func (r *Reader) Close() error { return r.f.Close() }

// Next returns the next n bytes, valid until the next call, wherever
// blocks split them: io.EOF once every byte has been returned, an error
// if fewer than n are left.
func (r *Reader) Next(n int) ([]byte, error) {
	if len(r.buf)-r.pos < n {
		if err := r.fill(n); err != nil {
			return nil, err
		}
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos], nil
}

// errVarint reports bytes that are no shortest uvarint of at most
// maxRecordLen bytes.
var errVarint = errors.New("storage: no shortest varint")

// uvarint returns the next uvarint, wherever blocks split it: errVarint
// unless it is the shortest encoding of its value in at most maxRecordLen
// bytes, io.EOF if the file ends before its first byte or inside it.
func (r *Reader) uvarint() (uint64, error) {
	var x uint64
	for k := range maxRecordLen {
		if r.pos == len(r.buf) {
			if err := r.fill(1); err != nil {
				return 0, err
			}
		}
		c := r.buf[r.pos]
		r.pos++
		x |= uint64(c&0x7f) << (7 * k)
		if c < 0x80 {
			if c == 0 && k > 0 {
				return 0, errVarint
			}
			return x, nil
		}
	}
	return 0, errVarint
}

// Each calls fn with the file's bytes, front to back, one read at a time,
// from a Reader that has returned none.
func (r *Reader) Each(fn func(p []byte) error) error {
	for r.off < r.size {
		err := r.fill(1)
		if r.pos = len(r.buf); err == nil {
			err = fn(r.buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fill keeps the bytes not yet returned and reads the blocks after them:
// FlushBlocks, or as many more as n bytes need, up to the file's end.
func (r *Reader) fill(n int) error {
	left, rest := len(r.buf)-r.pos, r.size-r.off
	if left == 0 && rest == 0 {
		return io.EOF
	} else if int64(n-left) > rest {
		return fmt.Errorf("storage: %s ends %d bytes into a %d-byte read", r.path, int64(left)+rest, n)
	}
	b := int64(r.b)
	m := min(max(FlushBlocks, (int64(n-left)+b-1)/b)*b, rest)
	copy(r.buf, r.buf[r.pos:])
	r.buf, r.pos = slices.Grow(r.buf[:left], int(m))[:left+int(m)], 0
	if err := r.read(r.buf[left:], r.off, &r.rec); err != nil {
		return err
	}
	r.sum = crc32.Update(r.sum, castagnoli, r.buf[left:])
	r.io.AddReadBytes(m)
	if r.off += m; r.off == r.size && r.crcs == nil {
		r.crcs = r.rec
	}
	return nil
}
