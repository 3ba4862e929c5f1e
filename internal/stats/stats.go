// Package stats provides the accounting substrate for the reproduction:
// block-granularity I/O counters following the external-memory model of
// Aggarwal and Vitter [CACM'88], a deterministic model-memory ledger used
// to report algorithm memory footprints (the paper's Figs. 9c/9d currency),
// and a RunStats record shared by every algorithm in the repository.
//
// It also declares the serving, WAL and replica blocks of /stats, each
// value once: a field of ServeSnapshot, WalSnapshot or ReplicaSnapshot.
// Counters are changed in place under their set's lock (Counters);
// gauges are not stored anywhere but read from live state when a layer
// takes its report. Only the block I/O counter, charged on every block
// read, stays an atomic of its own.
package stats

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultBlockSize is the disk block size B used when a caller does not
// specify one. All I/O counts in the repository are in units of B-sized
// block transfers.
const DefaultBlockSize = 4096

// IOCounter tracks read and write I/Os at block granularity. A read I/O
// loads one block of size B from disk; a write I/O stores one block.
// Counters are updated atomically so a single counter may be shared by
// several files.
type IOCounter struct {
	blockSize  int
	reads      atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

// NewIOCounter returns a counter for the given block size. A non-positive
// blockSize selects DefaultBlockSize.
func NewIOCounter(blockSize int) *IOCounter {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &IOCounter{blockSize: blockSize}
}

// BlockSize reports the block size B the counter was created with.
func (c *IOCounter) BlockSize() int { return c.blockSize }

// AddReadBlocks records n block read I/Os.
func (c *IOCounter) AddReadBlocks(n int64) { c.reads.Add(n) }

// AddWriteBlocks records n block write I/Os.
func (c *IOCounter) AddWriteBlocks(n int64) { c.writes.Add(n) }

// AddReadBytes records logical bytes delivered to the caller. It does not
// change the block counters; those are charged by the storage layer when a
// block is actually fetched.
func (c *IOCounter) AddReadBytes(n int64) { c.readBytes.Add(n) }

// AddWriteBytes records logical bytes accepted from the caller.
func (c *IOCounter) AddWriteBytes(n int64) { c.writeBytes.Add(n) }

// Reads reports the number of block read I/Os so far.
func (c *IOCounter) Reads() int64 { return c.reads.Load() }

// Writes reports the number of block write I/Os so far.
func (c *IOCounter) Writes() int64 { return c.writes.Load() }

// Reset zeroes all counters.
func (c *IOCounter) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.readBytes.Store(0)
	c.writeBytes.Store(0)
}

// Snapshot captures the current counter values.
func (c *IOCounter) Snapshot() IOSnapshot {
	return IOSnapshot{
		BlockSize:  c.blockSize,
		Reads:      c.reads.Load(),
		Writes:     c.writes.Load(),
		ReadBytes:  c.readBytes.Load(),
		WriteBytes: c.writeBytes.Load(),
	}
}

// IOSnapshot is an immutable copy of an IOCounter's state.
type IOSnapshot struct {
	BlockSize  int
	Reads      int64
	Writes     int64
	ReadBytes  int64
	WriteBytes int64
}

// Total reports read plus write block I/Os.
func (s IOSnapshot) Total() int64 { return s.Reads + s.Writes }

// Sub returns the delta s minus prev, counter by counter.
func (s IOSnapshot) Sub(prev IOSnapshot) IOSnapshot {
	return IOSnapshot{
		BlockSize:  s.BlockSize,
		Reads:      s.Reads - prev.Reads,
		Writes:     s.Writes - prev.Writes,
		ReadBytes:  s.ReadBytes - prev.ReadBytes,
		WriteBytes: s.WriteBytes - prev.WriteBytes,
	}
}

// String renders the snapshot for logs and experiment tables.
func (s IOSnapshot) String() string {
	return fmt.Sprintf("reads=%d writes=%d (B=%d)", s.Reads, s.Writes, s.BlockSize)
}

// MemModel is a deterministic ledger of the memory an algorithm holds, in
// bytes. Algorithms register each long-lived structure they allocate
// (core arrays, cnt arrays, loaded partitions, CSR buffers) under a label
// and release it when done; the ledger tracks the peak. Reported numbers
// are therefore reproducible across machines and runs, unlike runtime
// heap statistics, and correspond to the paper's analytical memory
// comparison (e.g. 4n bytes for core, 8n for core+cnt, Θ(m+n) for
// in-memory baselines).
type MemModel struct {
	items map[string]int64
	cur   int64
	peak  int64
}

// NewMemModel returns an empty ledger.
func NewMemModel() *MemModel {
	return &MemModel{items: make(map[string]int64)}
}

// Alloc records that the structure named label now holds size bytes.
// Re-registering a label replaces its previous size (the delta is applied),
// which models growing or shrinking a buffer in place.
func (m *MemModel) Alloc(label string, size int64) {
	old := m.items[label]
	m.items[label] = size
	m.cur += size - old
	if m.cur > m.peak {
		m.peak = m.cur
	}
}

// Free releases the structure named label. Freeing an unknown label is a
// no-op, so teardown paths can be unconditional.
func (m *MemModel) Free(label string) {
	old, ok := m.items[label]
	if !ok {
		return
	}
	delete(m.items, label)
	m.cur -= old
}

// Current reports the live ledger total in bytes.
func (m *MemModel) Current() int64 { return m.cur }

// Peak reports the highest ledger total observed.
func (m *MemModel) Peak() int64 { return m.peak }

// Labels returns the live labels in sorted order, for diagnostics.
func (m *MemModel) Labels() []string {
	out := make([]string, 0, len(m.items))
	for k := range m.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunStats aggregates everything an experiment reports about one algorithm
// execution: iteration structure, node computations (invocations of
// LocalCore or its analogues), core-number updates per iteration (Fig. 3),
// I/O, model memory, and wall-clock time.
type RunStats struct {
	Algorithm string
	// Iterations is the number of passes over the node range the
	// algorithm performed (l in Theorem 4.2).
	Iterations int
	// NodeComputations counts neighbour-list loads that fed a core
	// recomputation — the quantity SemiCore* provably minimises.
	NodeComputations int64
	// UpdatedPerIter[i] is the number of nodes whose core number changed
	// in iteration i (0-based). Drives Fig. 3.
	UpdatedPerIter []int64
	// Dirty lists the nodes whose core number was written with a new
	// value during the run — the affected region the maintenance
	// algorithms (6-8) visit. It is a sound superset of the nodes whose
	// core number differs from before the run: a node raised and then
	// lowered back appears here even though its final value is
	// unchanged, and a node touched in several iterations may appear
	// more than once. Consumers that need an exact delta must dedupe
	// and compare against the pre-run values (internal/serve does).
	// Full decompositions leave it nil: there every node is implicitly
	// dirty.
	Dirty        []uint32
	IO           IOSnapshot
	MemPeakBytes int64
	Duration     time.Duration
}

// TotalUpdates sums UpdatedPerIter.
func (r *RunStats) TotalUpdates() int64 {
	var t int64
	for _, u := range r.UpdatedPerIter {
		t += u
	}
	return t
}

// String renders a one-line summary.
func (r *RunStats) String() string {
	return fmt.Sprintf("%s: iters=%d comps=%d updates=%d io[%s] mem=%s time=%v",
		r.Algorithm, r.Iterations, r.NodeComputations, r.TotalUpdates(),
		r.IO, FormatBytes(r.MemPeakBytes), r.Duration)
}

// FormatBytes renders a byte count using binary units, e.g. "4.2 GiB".
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
