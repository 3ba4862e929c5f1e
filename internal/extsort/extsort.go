// Package extsort provides an external merge sort for arc streams. It is
// the substrate that lets the repository build the on-disk adjacency
// format from an arbitrary, unsorted edge list under a bounded memory
// budget — the same regime the paper's semi-external model assumes for
// the graphs themselves (node state fits, edge state does not).
//
// The sorter packs each arc into one 64-bit key (source in the high half),
// buffers keys up to half its budget and spills each full buffer, as it
// is, as one run into a directory of its own. The order arcs come out in
// is a rank of their sources, (rank(U), V), that may be known only once
// every arc is in (Build ranks nodes by degree), so each run is sorted
// once, at Iterate: read back, keyed by rank, sorted with an LSD radix
// sort whose scratch is the other half of the budget and written again.
// Iterate then merges the runs with a typed binary heap of (key, run)
// pairs, on a goroutine of its own that hands the merged keys to the
// caller's in 64 KiB batches, so that reading the runs overlaps what the
// caller does with the arcs. Runs are written and read
// storage.FlushBlocks blocks per system call, and all of that traffic is
// charged to an I/O counter at block granularity, so graph construction
// costs what its passes cost and is measurable alongside algorithm cost.
// Each run keeps the CRC32C of every block its writer flushed, and the
// merge reads it back through a storage.Reader held to them: a damaged
// run fails the merge instead of reaching the graph it builds.
package extsort

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Arc is a directed (source, target) pair; an undirected edge contributes
// two arcs.
type Arc struct {
	U, V uint32
}

// key packs the arc so that integer order is (source, target) order.
func (a Arc) key() uint64 { return uint64(a.U)<<32 | uint64(a.V) }

func arcOf(key uint64) Arc { return arcAt(key, 32) }

// arcAt unpacks a key whose target takes the low idBits bits.
func arcAt(key uint64, idBits uint) Arc {
	return Arc{U: uint32(key >> idBits), V: uint32(key & (1<<idBits - 1))}
}

// A run file stores each key as one little-endian word with its halves
// exchanged: an arc of an unsorted run as U then V, both little-endian.
const arcBytes = 8

func putKey(b []byte, key uint64) {
	binary.LittleEndian.PutUint64(b, bits.RotateLeft64(key, 32))
}

func getKey(b []byte) uint64 {
	return bits.RotateLeft64(binary.LittleEndian.Uint64(b), 32)
}

// defaultBudgetArcs is the budget a non-positive NewSorter argument selects.
const defaultBudgetArcs = 1 << 20

// Sorter accumulates arcs and yields them in sorted order. The arc-sized
// memory it holds — the key buffer plus the radix scratch — never exceeds
// its budget; the merge adds storage.FlushBlocks blocks a run. A spilled
// run is written twice and read twice: unsorted, then sorted, then merged.
type Sorter struct {
	dir      string
	io       *stats.IOCounter
	bufCap   int      // max keys buffered: half the budget, the rest is scratch
	buf      []uint64 // packed arcs not yet spilled
	scratch  []uint64 // radix sort's second buffer, allocated on first use
	spillDir string   // private run directory, created by the first spill
	idBits   uint     // the bits a sorted key gives its target: 32 until Iterate ranks
	runs     []run
	total    int64
	iterated bool
	closed   bool
}

// NewSorter creates a sorter spilling runs into a private directory under
// dir. budgetArcs bounds the arcs' worth of memory held at once, sort
// scratch included; non-positive selects 1<<20. Close releases the sorter.
func NewSorter(dir string, budgetArcs int, ctr *stats.IOCounter) *Sorter {
	if budgetArcs <= 0 {
		budgetArcs = defaultBudgetArcs
	}
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	return &Sorter{dir: dir, io: ctr, bufCap: max(1, budgetArcs/2), idBits: 32}
}

// Add appends one arc, spilling the buffer as a run if it is full.
func (s *Sorter) Add(a Arc) error {
	if len(s.buf) == cap(s.buf) {
		// append's own growth would overshoot the budget.
		grown := make([]uint64, len(s.buf), min(s.bufCap, max(256, 2*cap(s.buf))))
		copy(grown, s.buf)
		s.buf = grown
	}
	s.buf = append(s.buf, a.key())
	s.total++
	if len(s.buf) >= s.bufCap {
		return s.spill()
	}
	return nil
}

// Total reports the number of arcs added.
func (s *Sorter) Total() int64 { return s.total }

// sortBuf keys the buffered arcs by rank and sorts them. A ranked key is
// rank(U)<<idBits | V, idBits the bits of the last rank, so the sort
// moves only the bits a key has. When the radix sort's last pass lands
// in the scratch, the two slices trade roles instead of copying back.
func (s *Sorter) sortBuf(rank []uint32) error {
	if rank != nil {
		n := uint64(len(rank))
		s.idBits = uint(bits.Len64(max(n, 1) - 1))
		for i, k := range s.buf {
			u, v := k>>32, k&0xffffffff
			if max(u, v) >= n {
				return fmt.Errorf("extsort: arc (%d,%d) has an endpoint past the %d ranked", u, v, n)
			}
			s.buf[i] = uint64(rank[u])<<s.idBits | v
		}
	}
	if len(s.buf) >= radixCutoff && cap(s.scratch) < len(s.buf) {
		s.scratch = make([]uint64, len(s.buf), cap(s.buf))
	}
	if sortKeys(s.buf, s.scratch, 2*s.idBits) {
		s.buf, s.scratch = s.scratch[:len(s.buf)], s.buf
	}
	return nil
}

// spill writes the buffer as it is, unsorted, as one run file.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	dir, err := s.TempDir()
	if err != nil {
		return err
	}
	r, err := writeRun(filepath.Join(dir, fmt.Sprintf("run-%d.arcs", len(s.runs))), s.buf, s.io)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, r)
	s.buf = s.buf[:0]
	return nil
}

// TempDir returns the sorter's private spill directory, creating it on
// first use: a caller's scratch files there are removed with the
// directory by Close.
func (s *Sorter) TempDir() (string, error) {
	if s.closed {
		return "", errors.New("extsort: sorter is closed")
	}
	if s.spillDir == "" {
		d, err := os.MkdirTemp(s.dir, "extsort-*")
		if err != nil {
			return "", err
		}
		s.spillDir = d
	}
	return s.spillDir, nil
}

// BudgetBytes reports the memory the budget bounds, the key buffer and
// the sort scratch together: once Iterate has returned the sorter holds
// none of it, and a caller may spend it.
func (s *Sorter) BudgetBytes() int { return 2 * 8 * s.bufCap }

// sortRun reads the unsorted run r back into the buffer, keys and sorts
// it, and writes it over itself.
func (s *Sorter) sortRun(r *run, rank []uint32) error {
	rd, err := storage.OpenReader(r.path, r.crcs, s.io)
	if err != nil {
		return err
	}
	s.buf = s.buf[:0]
	for {
		key, err := nextKey(rd)
		if err != nil {
			rd.Close()
			if err != io.EOF {
				return err
			}
			break
		}
		s.buf = append(s.buf, key)
	}
	if err := s.sortBuf(rank); err != nil {
		return err
	}
	*r, err = writeRun(r.path, s.buf, s.io)
	return err
}

// Iterate streams every arc once, its source replaced by rank[source],
// in ascending (rank, target) order; an endpoint rank does not cover,
// source or target, is an error. A nil rank, for the tests only, keeps
// every source as it is: they sort full 32-bit ids, which no rank array
// could cover. The buffered arcs are sorted in memory and spilled as a
// sorted run if any run was spilled before them; each of those is then
// sorted (sortRun) and the runs merged. It may be called once; on return it has released
// the budget's memory and removed the run files.
func (s *Sorter) Iterate(rank []uint32, fn func(a Arc) error) error {
	if s.iterated || s.closed {
		return errors.New("extsort: Iterate on a used or closed sorter")
	}
	s.iterated = true
	if err := s.sortBuf(rank); err != nil {
		return err
	}
	if len(s.runs) == 0 {
		// Pure in-memory path.
		defer func() { s.buf, s.scratch = nil, nil }()
		for _, k := range s.buf {
			if err := fn(arcAt(k, s.idBits)); err != nil {
				return err
			}
		}
		return nil
	}
	// The runs are spent once Iterate returns, finished or not: they go
	// now, not at Close, so that they never share the disk with what a
	// caller writes into TempDir after the merge.
	defer func() {
		for _, r := range s.runs {
			os.Remove(r.path)
		}
		s.runs = nil
	}()
	unsorted := len(s.runs)
	if err := s.spill(); err != nil {
		return err
	}
	for i := range unsorted {
		if err := s.sortRun(&s.runs[i], rank); err != nil {
			return err
		}
	}
	// Every run is sorted and in its file: the merge needs no arc-sized
	// memory.
	s.buf, s.scratch = nil, nil

	readers := make([]*storage.Reader, 0, len(s.runs))
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	h := make(mergeHeap, 0, len(s.runs))
	for _, run := range s.runs {
		r, err := storage.OpenReader(run.path, run.crcs, s.io)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		key, err := nextKey(r)
		if err == nil {
			h = append(h, mergeItem{key: key, run: r})
		} else if err != io.EOF {
			return err
		}
	}
	h.init()
	// The heap runs on a goroutine of its own and hands the merged keys
	// over in batches, so the merge's reads overlap fn's work. done stops
	// it when fn fails, and Iterate waits for it before the deferred
	// close of the readers.
	full, free := make(chan []uint64, mergeBatches), make(chan []uint64, mergeBatches)
	for range mergeBatches {
		free <- make([]uint64, 0, mergeBatchKeys)
	}
	done := make(chan struct{})
	var mergeErr error
	go func() {
		defer close(full)
		mergeErr = h.merge(free, full, done)
	}()
	defer func() {
		close(done)
		for range full {
		}
	}()
	for batch := range full {
		for _, k := range batch {
			if err := fn(arcAt(k, s.idBits)); err != nil {
				return err
			}
		}
		free <- batch[:0]
	}
	return mergeErr
}

// mergeBatches batches of mergeBatchKeys keys (64 KiB each) carry the
// merged keys from the merge's goroutine to Iterate's.
const (
	mergeBatches   = 3
	mergeBatchKeys = 1 << 13
)

// merge pops the heap empty, sending its keys in order in batches taken
// from free to full, until done is closed. It reports a run that failed
// to read.
func (h mergeHeap) merge(free <-chan []uint64, full chan<- []uint64, done <-chan struct{}) error {
	var batch []uint64
	select {
	case batch = <-free:
	case <-done:
		return nil
	}
	for len(h) > 0 {
		top := &h[0]
		batch = append(batch, top.key)
		key, err := nextKey(top.run)
		if err == nil {
			top.key = key
		} else if err == io.EOF {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			return err
		}
		h.down(0)
		if len(batch) == cap(batch) || len(h) == 0 {
			select {
			case full <- batch:
			case <-done:
				return nil
			}
			if len(h) > 0 {
				select {
				case batch = <-free:
				case <-done:
					return nil
				}
			}
		}
	}
	return nil
}

// Close removes the sorter's spill directory and drops its buffers. It is
// idempotent, and safe whether or not Iterate ran or finished.
func (s *Sorter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.buf, s.scratch = nil, nil
	if s.spillDir == "" {
		return nil
	}
	return os.RemoveAll(s.spillDir)
}

// mergeItem is the head of one run; mergeHeap is a binary min-heap of
// them by key. Equal keys are equal arcs, so ties need no order.
type mergeItem struct {
	key uint64
	run *storage.Reader
}

type mergeHeap []mergeItem

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap below i after h[i] grew.
func (h mergeHeap) down(i int) {
	n := len(h)
	if i >= n {
		return
	}
	it := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].key < h[c].key {
			c++
		}
		if it.key <= h[c].key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// run is one spilled run file and the CRC32C of each of its blocks.
type run struct {
	path string
	crcs []uint32
}

// writeRun writes sorted keys as one run file, encoding a block's worth
// of whole arcs (at least one) per Write; the writer flushes
// storage.FlushBlocks blocks per system call.
func writeRun(path string, keys []uint64, ctr *stats.IOCounter) (run, error) {
	w, err := storage.CreateBlockWriter(path, ctr)
	if err != nil {
		return run{}, err
	}
	chunk := make([]byte, max(1, ctr.BlockSize()/arcBytes)*arcBytes)
	for len(keys) > 0 {
		n := min(len(keys), len(chunk)/arcBytes)
		for i, k := range keys[:n] {
			putKey(chunk[i*arcBytes:], k)
		}
		if _, err := w.Write(chunk[:n*arcBytes]); err != nil {
			w.Close()
			return run{}, err
		}
		keys = keys[n:]
	}
	if err := w.Close(); err != nil {
		return run{}, err
	}
	return run{path: path, crcs: w.BlockCRCs()}, nil
}

// nextKey returns the run's next key, io.EOF at its end.
func nextKey(r *storage.Reader) (uint64, error) {
	p, err := r.Next(arcBytes)
	if err != nil {
		return 0, err
	}
	return getKey(p), nil
}
