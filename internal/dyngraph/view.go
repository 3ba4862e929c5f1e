package dyngraph

import (
	"slices"

	"kcore/internal/stats"
)

// View is a pinned, read-only image of the graph as it stood at Pin: a
// reader, so a graph.Source, over a second handle on the tables that were
// current and a copy of the update buffer. Nothing in it is O(m) — the
// adjacency stays in the files, which the open handles keep readable
// however many fold-backs rename newer ones into their place while the
// view lives. It may be scanned from any goroutine, concurrently with the
// graph's owner; Release must follow.
type View struct {
	reader
	merges int64 // the graph's FoldBacks at the pin, for Adopt
}

// Pin captures a View. It must run on the goroutine that owns the graph
// (under internal/serve, the writer: see ConcurrentSession.Do), reads no
// block of the base and costs O(buffer), independent of the graph's size.
func (g *Graph) Pin() (*View, error) {
	disk, err := g.disk.Reopen() // frames of its own, the checksums and the index the open's
	if err != nil {
		return nil, err
	}
	// The owner edits its key arrays in place, so the view takes its own:
	// two pointer-free clones, 8 B per buffered arc.
	r := reader{disk: disk, ins: slices.Clone(g.ins), del: slices.Clone(g.del), arcs: g.arcs}
	return &View{reader: r, merges: g.FoldBacks()}, nil
}

// Release closes the view's handles; tables a fold-back replaced in the
// meantime leave the disk here.
func (vw *View) Release() { vw.disk.Close() }

// ChargeTo charges the view's later reads to io, never to the counter the
// graph serves from (storage.Graph.ChargeTo): a checkpoint's scan reads
// every edge block once, held to its checksum, through the frames of the
// view's handle, and the records come from the node index the handle
// shares with the graph, so the node table is not read again. A damaged
// edge table fails the scan instead of being copied.
func (vw *View) ChargeTo(io *stats.IOCounter) { vw.disk.ChargeTo(io) }
