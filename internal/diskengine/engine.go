package diskengine

import (
	"fmt"
	"os"

	"kcore"
	"kcore/internal/maintain"
	"kcore/internal/serve"
	"kcore/internal/stats"
)

// Options configures a disk engine.
type Options struct {
	// Dir is the partition working directory, owned exclusively by the
	// engine: it is wiped at Open (partitions are a rebuildable serving
	// projection, not durable state). Empty selects base+".parts",
	// which is additionally removed at Close.
	Dir string
	// CacheBlocks bounds resident adjacency to CacheBlocks blocks;
	// <=0 selects 1024.
	CacheBlocks int
	// BlockSize is the I/O block size in bytes; <=0 selects 4096.
	BlockSize int
	// PartitionArcs is the target arcs per partition file; <=0 derives
	// one from the graph size.
	PartitionArcs int64
	// OverlayArcs is the buffered-arc threshold that triggers an overlay
	// merge; <=0 selects 1<<16.
	OverlayArcs int
	// Serve tunes the serving session (queue depth, batch shape,
	// OnApply hooks); nil uses serve defaults.
	Serve *serve.Options
}

// backend adapts a Store plus its maintenance session to serve.Backend:
// the same SemiInsert*/SemiDelete* repairs as the in-memory path, run
// over cached blocks and the overlay instead of a memgraph.
type backend struct {
	st   *Store
	sess *maintain.Session
}

func (b *backend) NumNodes() uint32 { return b.st.NumNodes() }
func (b *backend) NumEdges() int64  { return b.st.NumEdges() }

func (b *backend) HasEdge(u, v uint32) (bool, error) { return b.st.HasEdge(u, v) }

func (b *backend) IOStats() kcore.IOStats { return ioStats(b.st.io.Snapshot()) }

func (b *backend) Cores() []uint32 { return b.sess.Core() }

func (b *backend) InsertEdges(edges []kcore.Edge) (kcore.RunInfo, error) {
	before := b.st.io.Snapshot()
	rs, err := b.sess.BatchInsert(edges)
	return runInfo(rs, b.st.io.Snapshot().Sub(before)), err
}

func (b *backend) DeleteEdges(edges []kcore.Edge) (kcore.RunInfo, error) {
	before := b.st.io.Snapshot()
	rs, err := b.sess.BatchDelete(edges)
	return runInfo(rs, b.st.io.Snapshot().Sub(before)), err
}

func (b *backend) Snapshot() *kcore.CoreSnapshot {
	return kcore.SnapshotFromCores(b.sess.Core(), b.st.NumEdges())
}

func (b *backend) SnapshotDelta(prev *kcore.CoreSnapshot, dirty []uint32) (*kcore.CoreSnapshot, int) {
	return prev.WithUpdates(b.sess.Core(), dirty, b.st.NumEdges())
}

func ioStats(s stats.IOSnapshot) kcore.IOStats {
	return kcore.IOStats{
		BlockSize:  s.BlockSize,
		Reads:      s.Reads,
		Writes:     s.Writes,
		ReadBytes:  s.ReadBytes,
		WriteBytes: s.WriteBytes,
	}
}

func runInfo(rs stats.RunStats, io stats.IOSnapshot) kcore.RunInfo {
	return kcore.RunInfo{
		Algorithm:        rs.Algorithm,
		Iterations:       rs.Iterations,
		NodeComputations: rs.NodeComputations,
		UpdatedPerIter:   append([]int64(nil), rs.UpdatedPerIter...),
		Dirty:            append([]uint32(nil), rs.Dirty...),
		IO:               ioStats(io),
		MemPeakBytes:     rs.MemPeakBytes,
		Duration:         rs.Duration,
	}
}

// Engine is the disk-backed serving engine: a serve.ConcurrentSession
// whose backend repairs cores over partition files behind a bounded
// block cache. It satisfies engine.Engine plus the BackendTyper and
// DiskStatser extensions.
type Engine struct {
	*serve.ConcurrentSession
	st       *Store
	ownedDir bool
}

// Open lays the on-disk graph at base out into partitions and starts a
// serving session over it. Memory stays O(n + cache + overlay): the
// core/cnt arrays, the overlay, and CacheBlocks block frames — never the
// full adjacency, with or without the durable shell around it (its
// checkpoints stream a pinned View).
func Open(base string, o Options) (*Engine, error) {
	dir := o.Dir
	owned := false
	if dir == "" {
		dir = base + ".parts"
		owned = true
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blockSize := o.BlockSize
	if blockSize <= 0 {
		blockSize = 4096
	}
	st, err := BuildStore(base, StoreOptions{
		Dir:           dir,
		CacheBlocks:   o.CacheBlocks,
		PartitionArcs: o.PartitionArcs,
		OverlayArcs:   o.OverlayArcs,
		IO:            stats.NewIOCounter(blockSize),
	})
	if err != nil {
		if owned {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	sess, err := maintain.NewSession(st, stats.NewMemModel())
	if err != nil {
		st.Close()
		if owned {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("diskengine: initial decomposition: %w", err)
	}
	cs, err := serve.NewBackend(&backend{st: st, sess: sess}, o.Serve)
	if err != nil {
		st.Close()
		if owned {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	return &Engine{ConcurrentSession: cs, st: st, ownedDir: owned}, nil
}

// Store exposes the underlying disk store (for stats and tests).
func (e *Engine) Store() *Store { return e.st }

// Pin captures a View on the writer goroutine, behind everything
// enqueued before the call: the pinned partition generations, overlay
// copy and epoch describe the graph at exactly that flush boundary. at
// runs at the same boundary (the durable shell reads its LSN there).
// The writer is held for O(partitions + overlay) plus at;
// streaming the view happens on the caller's goroutine afterwards. The
// caller must Release the view.
func (e *Engine) Pin(at func()) (*View, error) {
	var vw *View
	err := e.Do(func() {
		vw = e.st.Pin()
		vw.Epoch = e.Snapshot()
		at()
	})
	return vw, err
}

// BackendType labels the engine in /stats.
func (e *Engine) BackendType() string { return "disk" }

// DiskStats snapshots the cache/overlay/merge gauges; safe to call
// concurrently with serving.
func (e *Engine) DiskStats() stats.DiskSnapshot { return e.st.DiskStats() }

// Close stops the serving session, releases the partition files and, if
// the engine created its working directory, removes it.
func (e *Engine) Close() error {
	err := e.ConcurrentSession.Close()
	if cerr := e.st.Close(); err == nil {
		err = cerr
	}
	if e.ownedDir {
		if rerr := os.RemoveAll(e.st.dir); err == nil {
			err = rerr
		}
	}
	return err
}
