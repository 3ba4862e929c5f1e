package dyngraph

import (
	"fmt"
	"os"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// csrTables is the Base over the paper's own layout: the node-table /
// edge-table pair at a path prefix, read through one-block buffers
// (storage.Graph) and rewritten whole. The files are the caller's graph,
// not a projection of it, which is what its Close rule is about.
type csrTables struct {
	*storage.Graph // the current tables; replaced by every Rewrite
	rewritten      bool
}

func openCSR(base string, ctr *stats.IOCounter) (*csrTables, error) {
	disk, err := storage.Open(base, ctr)
	if err != nil {
		return nil, err
	}
	return &csrTables{Graph: disk}, nil
}

// Rewrite merges the buffer into the tables: one sequential read of the
// old graph, one sequential write of the new one (both counted), then an
// atomic swap.
func (c *csrTables) Rewrite(ins, del map[uint32][]uint32) error {
	base, ctr := c.Base(), c.IOCounter()
	tmp := base + ".compact"
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
	for _, ext := range []string{".meta", ".nt", ".et"} {
		if err := os.Rename(tmp+ext, base+ext); err != nil {
			return fmt.Errorf("dyngraph: swapping %s: %w", ext, err)
		}
	}
	disk, err := storage.Open(base, ctr)
	if err != nil {
		return err
	}
	c.Graph = disk
	c.rewritten = true
	return nil
}

// Close releases the tables. If the session never rewrote them, pending
// buffered edits are discarded and the on-disk graph is exactly as
// opened; but if a rewrite already replaced the files mid-session,
// discarding the remaining buffer would leave a torn state (early edits
// applied, late ones lost), so the buffer is folded in first in that
// case.
func (c *csrTables) Close(ins, del map[uint32][]uint32) error {
	if c.rewritten && len(ins)+len(del) > 0 {
		if err := c.Rewrite(ins, del); err != nil {
			c.Graph.Close()
			return err
		}
	}
	return c.Graph.Close()
}

// Pin opens private read handles on the tables that are current: they
// keep those readable however many rewrites rename newer ones into their
// place, and leave the disk when the view closes them.
func (c *csrTables) Pin() (BaseView, error) {
	disk, err := storage.Open(c.Base(), c.IOCounter()) // Scan re-charges the reads
	if err != nil {
		return nil, err
	}
	return csrView{disk}, nil
}

// csrView reads both tables front to back through its own one-block
// buffers: every block once, checked against the CRC32C their header
// records (storage.ScanVerified), so a table damaged under the running
// graph fails the scan instead of being copied.
type csrView struct{ disk *storage.Graph }

func (vw csrView) Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	return vw.disk.ScanVerified(io, fn)
}

func (vw csrView) Release() { vw.disk.Close() }
