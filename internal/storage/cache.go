package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// Blocks reports the frame budget.
func (c *BlockCache) Blocks() int { return len(c.frames) }

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
// bytes, and whole-block truncation is caught at Open by the
// size/checksum-count cross-check.
type CachedFile struct {
	f     *os.File
	path  string
	size  int64
	id    uint64
	cache *BlockCache
	crcs  []uint32 // per-block CRC32C; nil until the first stream records them
	io    *stats.IOCounter
	last  int // the frame the previous lookup was served from
}

// Open opens path for cached, counted reading. crcs, when non-nil, must
// hold one CRC32C per block of the file at the cache's block size; the
// count is cross-checked against the file size here so a truncated or
// grown file is rejected immediately. A file opened with none must be
// streamed, which records them, before its first fill.
func (c *BlockCache) Open(path string, crcs []uint32, ctr *stats.IOCounter) (*CachedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if crcs != nil {
		want := int((size + int64(c.b) - 1) / int64(c.b))
		if len(crcs) != want {
			f.Close()
			return nil, fmt.Errorf("storage: %s: %d blocks on disk but %d checksums recorded (truncated or resized)", path, want, len(crcs))
		}
	}
	c.nextID++
	return &CachedFile{
		f:     f,
		path:  path,
		size:  size,
		id:    c.nextID,
		cache: c,
		crcs:  crcs,
		io:    ctr,
	}, nil
}

// Size reports the file size in bytes.
func (cf *CachedFile) Size() int64 { return cf.size }

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

// block returns the valid bytes of block id, from the cache on a hit,
// loading (and verifying) from disk on a miss. The returned slice aliases
// the cache frame and is only valid until the next cache operation.
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
	if off >= cf.size {
		return nil, fmt.Errorf("storage: block %d of %s beyond EOF (size %d)", id, cf.path, cf.size)
	}
	n := min(int64(c.b), cf.size-off)
	idx = c.grab()
	fr := &c.frames[idx]
	if fr.buf == nil {
		fr.buf = make([]byte, c.b)
	}
	if err := cf.load(fr.buf[:n], id); err != nil {
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

// read reads block id, whose whole length dst must be, from the file and
// charges one read.
func (cf *CachedFile) read(dst []byte, id int64) error {
	off := id * int64(cf.cache.b)
	n, err := cf.f.ReadAt(dst, off)
	if err != nil && err != io.EOF {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("storage: short block read on %s: got %d want %d at off %d (truncated)", cf.path, n, len(dst), off)
	}
	cf.io.AddReadBlocks(1)
	return nil
}

// load reads block id and holds it to its recorded checksum.
func (cf *CachedFile) load(dst []byte, id int64) error {
	if err := cf.read(dst, id); err != nil {
		return err
	}
	if got, want := crc32.Checksum(dst, castagnoli), cf.crcs[id]; got != want {
		return fmt.Errorf("storage: block %d of %s corrupt: crc %08x want %08x", id, cf.path, got, want)
	}
	return nil
}

// stream reads the whole file front to back through a buffer of its own,
// not the frames, and calls fn with each block in turn: one read charged
// per block, each verified as a cache fill is — or, on a file opened
// without checksums, recorded for the fills to come (the open's pass).
func (cf *CachedFile) stream(fn func(blk []byte) error) error {
	b := int64(cf.cache.b)
	buf := make([]byte, b)
	var crcs []uint32
	record := cf.crcs == nil
	if record {
		crcs = make([]uint32, 0, (cf.size+b-1)/b)
	}
	for id := int64(0); id*b < cf.size; id++ {
		blk := buf[:min(b, cf.size-id*b)]
		var err error
		if record {
			err = cf.read(blk, id)
			crcs = append(crcs, crc32.Checksum(blk, castagnoli))
		} else {
			err = cf.load(blk, id)
		}
		if err != nil {
			return err
		}
		cf.io.AddReadBytes(int64(len(blk)))
		if err := fn(blk); err != nil {
			return err
		}
	}
	if record {
		cf.crcs = crcs
	}
	return nil
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
		start := off - id*b
		n := copy(p, blk[start:])
		if n == 0 {
			return fmt.Errorf("storage: zero-length copy at off %d of %s", off, cf.path)
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}
