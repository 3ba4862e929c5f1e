package stats

// DiskSnapshot is a point-in-time view of a graph's on-disk working
// state: the block-cache economy (the whole adjacency memory budget),
// the overlay fill level, and the cumulative cost of overlay merges.
// Filled by internal/dyngraph (Graph.DiskStats), surfaced under
// /g/{name}/stats as the disk block every graph has.
type DiskSnapshot struct {
	// CacheBlocks and CacheBlockSize bound resident adjacency to
	// CacheBlocks*CacheBlockSize bytes.
	CacheBlocks    int `json:"cache_blocks"`
	CacheBlockSize int `json:"cache_block_size"`
	// CacheHits/CacheMisses/CacheEvictions are cumulative block-cache
	// counters; CacheHitRate is hits/(hits+misses).
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	// OverlayArcs is the buffered update size; past OverlayLimit the
	// buffer is merged into the tables, which are rewritten whole.
	OverlayArcs  int64 `json:"overlay_arcs"`
	OverlayLimit int   `json:"overlay_limit"`
	// Merges counts overlay merges, MergedBytes the table bytes they
	// wrote.
	Merges      int64 `json:"merges"`
	MergedBytes int64 `json:"merged_bytes"`
}
