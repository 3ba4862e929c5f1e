package kcore

import (
	"fmt"
	"os"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/storage"
)

// Snapshot chunking constants: a CoreSnapshot stores its core numbers in
// fixed-size chunks so that consecutive snapshots can share the chunks no
// core number changed in (copy-on-write). 4096 uint32s per chunk (16 KiB,
// a few I/O blocks) keeps the per-chunk copy cost trivial while still
// amortising the chunk-table overhead to one pointer per 4096 nodes.
const (
	// SnapshotChunkShift is log2 of the chunk length.
	SnapshotChunkShift = 12
	// SnapshotChunkLen is the number of core numbers per chunk, the
	// copy-on-write sharing granularity between epochs.
	SnapshotChunkLen = 1 << SnapshotChunkShift

	snapshotChunkMask = SnapshotChunkLen - 1
)

// CoreSnapshot is an immutable view of a core decomposition at one
// instant: the core numbers plus derived summary fields. The core numbers
// live in SnapshotChunkLen-sized chunks; a snapshot derived from a
// predecessor (Maintainer.SnapshotDelta) shares every chunk that holds no
// changed core number and copies only the dirty ones, so publishing an
// epoch after a small update costs O(changed), not O(n). Either way the
// snapshot is safe to share across goroutines without any locking — the
// serving layer (internal/serve) publishes one per epoch and readers
// query it lock-free. Query methods live in query.go.
type CoreSnapshot struct {
	// chunks holds the core numbers: node v lives at
	// chunks[v>>SnapshotChunkShift][v&snapshotChunkMask]. Chunks are
	// immutable once the snapshot is published and may be shared with
	// other snapshots.
	chunks [][]uint32
	// n is the node count.
	n uint32
	// hist[k] counts nodes with core number exactly k, k in [0, Kmax];
	// maintained incrementally across delta snapshots so Kmax and the
	// size profile never need an O(n) rescan. Immutable and shared with
	// query results only by copy.
	hist []int64
	// dirty is the exact delta against the snapshot this one was derived
	// from (see Dirty); nil for a snapshot taken from scratch.
	dirty []uint32

	// Kmax is the degeneracy at snapshot time.
	Kmax uint32
	// NumEdges is the undirected edge count at snapshot time.
	NumEdges int64
	// TakenAt is when the snapshot was captured.
	TakenAt time.Time
}

// newCoreSnapshot builds a snapshot from scratch: one full O(n) pass
// copying the core array into private chunks and counting the histogram.
func newCoreSnapshot(core []uint32, numEdges int64) *CoreSnapshot {
	s := &CoreSnapshot{
		n:        uint32(len(core)),
		hist:     CoreHistogram(core),
		NumEdges: numEdges,
		TakenAt:  time.Now(),
	}
	s.Kmax = uint32(len(s.hist) - 1)
	s.chunks = make([][]uint32, (len(core)+SnapshotChunkLen-1)/SnapshotChunkLen)
	for i := range s.chunks {
		lo := i * SnapshotChunkLen
		hi := lo + SnapshotChunkLen
		if hi > len(core) {
			hi = len(core)
		}
		s.chunks[i] = append([]uint32(nil), core[lo:hi]...)
	}
	return s
}

// withUpdates derives the snapshot of the current core array from s,
// sharing every chunk the dirty set does not touch. dirty must contain
// every node whose core number differs between s and core; supersets,
// duplicates and nodes whose value did not actually change are all
// handled (they cost a lookup and nothing else), and the new snapshot's
// Dirty is the exact delta. Reports how many chunks were copied.
func (s *CoreSnapshot) withUpdates(core []uint32, dirty []uint32, numEdges int64) (*CoreSnapshot, int) {
	ns := &CoreSnapshot{
		chunks:   append([][]uint32(nil), s.chunks...),
		n:        s.n,
		NumEdges: numEdges,
		TakenAt:  time.Now(),
	}
	hist := append([]int64(nil), s.hist...)
	copied := 0
	for _, v := range dirty {
		if v >= s.n {
			continue
		}
		ci, i := v>>SnapshotChunkShift, v&snapshotChunkMask
		// Read the new snapshot's own cell: a node already seen in dirty
		// holds its new value there, so a repeat is skipped like a node
		// whose value did not change.
		old, now := ns.chunks[ci][i], core[v]
		if old == now {
			continue
		}
		if &ns.chunks[ci][0] == &s.chunks[ci][0] {
			ns.chunks[ci] = append([]uint32(nil), s.chunks[ci]...)
			copied++
		}
		ns.chunks[ci][i] = now
		ns.dirty = append(ns.dirty, v)
		hist[old]--
		for int64(now) >= int64(len(hist)) {
			hist = append(hist, 0)
		}
		hist[now]++
	}
	for len(hist) > 1 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	ns.hist = hist
	ns.Kmax = uint32(len(hist) - 1)
	return ns, copied
}

// Snapshot captures the maintainer's current core numbers as an immutable
// CoreSnapshot with one full O(n) copy. The copy decouples readers from
// subsequent maintenance: the returned snapshot never changes, no matter
// how many edges are inserted or deleted afterwards. Publishers that know
// which nodes changed should use SnapshotDelta instead.
func (m *Maintainer) Snapshot() *CoreSnapshot {
	return newCoreSnapshot(m.session.Core(), m.g.NumEdges())
}

// SnapshotDelta captures the current core numbers as a snapshot derived
// from prev: chunks holding no changed core number are shared with prev,
// only dirty chunks are copied, and the degeneracy and size profile are
// maintained incrementally from the delta — O(changed) total, the paper's
// maintenance locality carried through to publication. dirty must include
// every node whose core number changed since prev was taken (RunInfo.Dirty
// from the operations applied in between; supersets and duplicates are
// fine — soundness only needs completeness); the new snapshot's Dirty is
// the exact delta. A nil prev, or one taken from a different graph size,
// falls back to a full Snapshot. Reports the number of chunks copied
// (every chunk, for the fallback).
func (m *Maintainer) SnapshotDelta(prev *CoreSnapshot, dirty []uint32) (*CoreSnapshot, int) {
	if prev == nil || prev.n != m.g.NumNodes() {
		s := m.Snapshot()
		return s, len(s.chunks)
	}
	return prev.withUpdates(m.session.Core(), dirty, m.g.NumEdges())
}

// Snapshot captures a finished decomposition as an immutable CoreSnapshot
// for g (which must be the graph the result was computed on).
func (r *Result) Snapshot(g *Graph) *CoreSnapshot {
	return newCoreSnapshot(r.Core, g.NumEdges())
}

// Save writes the core numbers to path in the one core-number file
// format (storage.WriteCores, a checkpoint's cores file), atomically:
// a temporary file renamed into place. Results of every algorithm save
// the same way; LoadResult reads the file back.
func (r *Result) Save(path string) error {
	tmp := path + ".tmp"
	if err := storage.WriteCores(faultfs.OS, tmp, r.Core); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadResult reads core numbers Save wrote, refusing a file that fails
// its checksum or does not cover exactly g's nodes. The cores are as
// stored, not checked against g; a Maintainer started FromResult on them
// converges to g's cores from them when they are an upper bound (g's
// own cores, or cores saved before edges were deleted).
func LoadResult(path string, g *Graph) (*Result, error) {
	core, err := storage.ReadCores(faultfs.OS, path)
	if err != nil {
		return nil, err
	}
	if uint32(len(core)) != g.NumNodes() {
		return nil, fmt.Errorf("kcore: snapshot covers %d nodes, graph has %d", len(core), g.NumNodes())
	}
	res := &Result{Core: core}
	for _, c := range core {
		if c > res.Kmax {
			res.Kmax = c
		}
	}
	return res, nil
}
