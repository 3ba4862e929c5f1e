package dyngraph

import (
	"slices"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// View is a pinned, read-only image of the graph as it stood at Pin:
// a second read handle on the tables that were current, a copy of the
// update buffer, and the arc count. Nothing in it is O(m) — the
// adjacency stays in the files, which the open handles keep readable
// however many fold-backs rename newer ones into their place while the
// view lives. Scan streams it from any goroutine, concurrently with the
// graph's owner; Release must follow.
type View struct {
	disk     *storage.Graph
	ins, del []uint64 // the buffer's key arrays, cloned
	n        uint32
	arcs     int64
	merges   int64 // the graph's FoldBacks at the pin, for Adopt
}

// Pin captures a View. It must run on the goroutine that owns the graph
// (under internal/serve, the writer: see ConcurrentSession.Do), reads no
// block of the base and costs O(buffer), independent of the graph's size.
func (g *Graph) Pin() (*View, error) {
	disk, err := g.disk.Reopen() // frames of its own, the checksums the open vouched for
	if err != nil {
		return nil, err
	}
	// The owner edits its key arrays in place, so the view takes its own:
	// two pointer-free clones, 8 B per buffered arc.
	return &View{disk: disk, ins: slices.Clone(g.ins), del: slices.Clone(g.del),
		n: g.NumNodes(), arcs: g.arcs, merges: g.FoldBacks()}, nil
}

// Release closes the view's handles; tables a fold-back replaced in the
// meantime leave the disk here.
func (vw *View) Release() { vw.disk.Close() }

// NumNodes reports n.
func (vw *View) NumNodes() uint32 { return vw.n }

// NumArcs reports the arc count of the pinned adjacency.
func (vw *View) NumArcs() int64 { return vw.arcs }

// Scan calls fn once per node in layout order with its merged (base +
// buffer) neighbour list, valid during the call only. Both tables are read
// front to back through the view's own frames: every block once, charged
// to io — never to the counter or the cache the graph serves from — and
// checked against its own CRC32C and the whole tables against the ones
// their header records (storage.ScanVerified), so a table damaged under
// the running graph fails the scan instead of being copied.
func (vw *View) Scan(io *stats.IOCounter, fn func(v uint32, nbrs []uint32) error) error {
	return vw.disk.ScanVerified(io, overlaid(vw.ins, vw.del, fn))
}

// overlaid wraps a scan callback so that it sees each base list merged
// with the buffered edits of its node, taken from the key arrays by one
// cursor each.
func overlaid(ins, del []uint64, fn func(v uint32, nbrs []uint32) error) func(uint32, []uint32) error {
	ci, cd := newCursor(ins), newCursor(del)
	var out []uint32
	return func(v uint32, disk []uint32) error {
		i, d := ci.run(v), cd.run(v)
		if len(i) == 0 && len(d) == 0 {
			return fn(v, disk)
		}
		out = merge(disk, i, d, out)
		return fn(v, out)
	}
}
