package diskengine

import (
	"kcore/internal/dyngraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// view is the store's dyngraph.BaseView: references to the partition
// generations that were current at Pin, which keep those files on disk
// however many rewrites replace them while the view lives.
type view struct {
	blockSize int
	parts     []*part
}

// Pin does no I/O and costs O(partitions), independent of the graph's
// size.
func (st *Store) Pin() (dyngraph.BaseView, error) {
	vw := &view{
		blockSize: st.cache.BlockSize(),
		parts:     append([]*part(nil), st.parts...),
	}
	for _, p := range vw.parts {
		p.refs.Add(1)
	}
	return vw, nil
}

// Release drops the view's partition references; generations a rewrite
// replaced in the meantime are unlinked here.
func (vw *view) Release() {
	for _, p := range vw.parts {
		p.unref()
	}
	vw.parts = nil
}

// Scan reads each partition front to back through two private one-block
// buffers — one over the edge region, one over the node records behind
// it — so every block is fetched once (the block the regions share,
// twice), verified against its recorded CRC32C, and charged to io; the
// store's block cache and its I/O counter never see the scan.
func (vw *view) Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	sc := viewScan{
		io:    io,
		lists: storage.NewBlockCache(1, vw.blockSize),
		recs:  storage.NewBlockCache(1, vw.blockSize),
	}
	for _, p := range vw.parts {
		if err := sc.part(p, fn); err != nil {
			return err
		}
	}
	return nil
}

// viewScan is the state of one view.Scan: the two block buffers and the
// decode scratch, reused across partitions.
type viewScan struct {
	io          *stats.IOCounter
	lists, recs *storage.BlockCache
	raw         []byte
	nbrs        []uint32
}

func (sc *viewScan) part(p *part, fn func(v uint32, nbrs []uint32) error) error {
	lf, err := sc.lists.Open(p.path, p.crcs, sc.io)
	if err != nil {
		return err
	}
	defer lf.Close()
	rf, err := sc.recs.Open(p.path, p.crcs, sc.io)
	if err != nil {
		return err
	}
	defer rf.Close()
	for v := p.lo; v < p.hi; v++ {
		off, deg, err := p.record(rf, v)
		if err != nil {
			return err
		}
		nbrs, err := readList(lf, off, deg, &sc.raw, sc.nbrs[:0])
		if err != nil {
			return err
		}
		sc.nbrs = nbrs
		if err := fn(v, nbrs); err != nil {
			return err
		}
	}
	return nil
}
