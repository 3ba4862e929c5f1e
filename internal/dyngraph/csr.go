package dyngraph

import (
	"fmt"
	"os"
	"sync/atomic"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// csrTables is the base under the update buffer: the paper's own layout,
// the node-table / edge-table pair at a path prefix, rewritten whole when
// the buffer is folded back. The files are the caller's graph, not a
// projection of it, which is what its Close rule is about.
type csrTables struct {
	*storage.Graph // the current tables; replaced by every Rewrite

	// cache, when non-nil, is the budgeted cache the tables are read
	// through, verifying every block it loads: the resident adjacency is
	// its frames and nothing else. nil leaves the tables on storage.Open's
	// small private cache, unverified.
	cache *storage.BlockCache

	// Rewrites done and the table bytes they wrote; atomic so that
	// DiskStats may be read off the owning goroutine.
	merges      atomic.Int64
	mergedBytes atomic.Int64
}

// tableExts are the files of a graph at a path prefix, the checksum
// sidecar included.
var tableExts = [...]string{".meta", ".nt", ".et", ".crc"}

// compactBase is where a rewrite builds the next tables before renaming
// them over base.
func compactBase(base string) string { return base + ".compact" }

// removeTables unlinks whatever exists of the files at base.
func removeTables(base string) {
	for _, ext := range tableExts {
		os.Remove(base + ext)
	}
}

func openCSR(base string, ctr *stats.IOCounter, cacheBlocks int) (*csrTables, error) {
	removeTables(compactBase(base)) // a rewrite some killed process never finished
	c := &csrTables{}
	if cacheBlocks > 0 {
		c.cache = storage.NewBlockCache(cacheBlocks, ctr.BlockSize())
	}
	if err := c.open(base, ctr); err != nil {
		return nil, err
	}
	return c, nil
}

// open attaches the tables at base; with a budgeted cache it is a
// verified open (storage.OpenCached), which gives the tables a rewrite
// just renamed into place their per-block checksums from the sidecar the
// rewrite wrote beside them.
func (c *csrTables) open(base string, ctr *stats.IOCounter) error {
	var (
		disk *storage.Graph
		err  error
	)
	if c.cache == nil {
		disk, err = storage.Open(base, ctr)
	} else {
		disk, err = storage.OpenCached(base, ctr, c.cache)
	}
	if err != nil {
		return err
	}
	c.Graph = disk
	return nil
}

// Rewrite merges the buffer into the tables: one sequential read of the
// old graph — through the cache where there is one, so no block is
// copied that was not verified — one sequential write of the new one and
// its checksum sidecar (both counted), then a swap by renames. Closing
// the old tables drops their frames. No error path leaves anything at
// compactBase.
func (c *csrTables) Rewrite(ins, del map[uint32][]uint32) (err error) {
	base, ctr := c.Base(), c.IOCounter()
	tmp := compactBase(base)
	defer func() {
		if err != nil {
			removeTables(tmp)
		}
	}()
	b, err := storage.NewBuilder(tmp, c.NumNodes(), ctr)
	if err != nil {
		return err
	}
	if err := c.Scan(0, c.NumNodes()-1, nil, overlaid(ins, del, b.AppendList)); err != nil {
		b.Abort()
		return err
	}
	if err := b.Close(); err != nil {
		return err
	}
	if err := c.Graph.Close(); err != nil {
		return err
	}
	for _, ext := range tableExts {
		if err := os.Rename(tmp+ext, base+ext); err != nil {
			return fmt.Errorf("dyngraph: swapping %s: %w", ext, err)
		}
	}
	if err := c.open(base, ctr); err != nil {
		return err
	}
	c.merges.Add(1)
	c.mergedBytes.Add(int64(c.NumNodes())*storage.NodeRecordSize + c.NumArcs()*storage.ArcSize)
	return nil
}

// Close releases the tables. If the session never rewrote them, pending
// buffered edits are discarded and the on-disk graph is exactly as
// opened; but if a rewrite already replaced the files mid-session,
// discarding the remaining buffer would leave a torn state (early edits
// applied, late ones lost), so the buffer is folded in first in that
// case.
func (c *csrTables) Close(ins, del map[uint32][]uint32) error {
	if c.merges.Load() > 0 && len(ins)+len(del) > 0 {
		if err := c.Rewrite(ins, del); err != nil {
			c.Graph.Close()
			return err
		}
	}
	return c.Graph.Close()
}

// Pin opens private read handles, with frames of their own whatever the
// graph itself reads through, on the tables that are current: they keep
// those readable however many rewrites rename newer ones into their
// place, and leave the disk when the view closes them.
func (c *csrTables) Pin() (*storage.Graph, error) {
	return storage.Open(c.Base(), c.IOCounter()) // View.Scan re-charges the reads
}
