package diskengine

import (
	"kcore/internal/dyngraph"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// View is a pinned, read-only image of the graph at one flush boundary
// of the writer: references to the partition generations that were
// current, a copy of the overlay, and the epoch published at that
// boundary. Nothing in it is O(m): the adjacency stays in the partition
// files, which the references keep on disk however many merges replace
// them while the view lives. Scan streams it from any goroutine,
// concurrently with the writer; Release must follow.
type View struct {
	// Epoch is the epoch the writer had published when the view was
	// pinned; its cores are exactly those of the view's adjacency.
	Epoch *serve.Epoch

	n         uint32
	arcs      int64
	blockSize int
	parts     []*part
	ins, del  map[uint32][]uint32
}

// Pin captures a View of the store as it stands. It must run on the
// store's goroutine (the serve writer; see Engine.Pin), does no I/O and
// costs O(partitions + overlay), independent of the graph's size.
func (st *Store) Pin() *View {
	vw := &View{
		n:         st.n,
		arcs:      st.arcs,
		blockSize: st.cache.BlockSize(),
		parts:     append([]*part(nil), st.parts...),
	}
	for _, p := range vw.parts {
		p.refs.Add(1)
	}
	// The store edits its overlay lists in place, so the view needs its
	// own; one backing array serves every list of both maps.
	buf := make([]uint32, 0, st.overlayArcs)
	vw.ins, buf = dyngraph.CopyOverlay(st.ins, buf)
	vw.del, _ = dyngraph.CopyOverlay(st.del, buf)
	return vw
}

// Release drops the view's partition references; generations a merge
// replaced in the meantime are unlinked here.
func (vw *View) Release() {
	for _, p := range vw.parts {
		p.unref()
	}
	vw.parts = nil
}

// NumNodes reports n.
func (vw *View) NumNodes() uint32 { return vw.n }

// NumArcs reports the arc count of the pinned adjacency.
func (vw *View) NumArcs() int64 { return vw.arcs }

// Scan calls fn once per node in id order with its merged (partition +
// overlay) neighbour list, valid during the call only. Each partition is
// read front to back through two private one-block buffers — one over
// the edge region, one over the node records behind it — so every block
// is fetched once (the block the regions share, twice), verified against
// its recorded CRC32C, and charged to io; the store's block cache and
// its I/O counter never see the scan.
func (vw *View) Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	sc := viewScan{
		vw:    vw,
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

// viewScan is the state of one View.Scan: the two block buffers and the
// decode scratch, reused across partitions.
type viewScan struct {
	vw          *View
	io          *stats.IOCounter
	lists, recs *storage.BlockCache
	raw         []byte
	disk, out   []uint32
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
		nbrs, err := readList(lf, off, deg, &sc.raw, sc.disk[:0])
		if err != nil {
			return err
		}
		sc.disk = nbrs
		if ins, del := sc.vw.ins[v], sc.vw.del[v]; len(ins)+len(del) > 0 {
			sc.out = dyngraph.Merge(nbrs, ins, del, sc.out)
			nbrs = sc.out
		}
		if err := fn(v, nbrs); err != nil {
			return err
		}
	}
	return nil
}
