package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// cmpArc is the reference order, written without the packed key.
func cmpArc(a, b Arc) int {
	if a.U != b.U {
		if a.U < b.U {
			return -1
		}
		return 1
	}
	if a.V != b.V {
		if a.V < b.V {
			return -1
		}
		return 1
	}
	return 0
}

func sortedCopy(arcs []Arc) []Arc {
	want := slices.Clone(arcs)
	slices.SortFunc(want, cmpArc)
	return want
}

// sortThrough pushes arcs through a Sorter with the given budget and
// block size and returns what Iterate yields; the sorter is closed.
func sortThrough(t testing.TB, arcs []Arc, budget, blockSize int) []Arc {
	t.Helper()
	s := NewSorter(t.TempDir(), budget, stats.NewIOCounter(blockSize))
	defer s.Close()
	for _, a := range arcs {
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if s.Total() != int64(len(arcs)) {
		t.Fatalf("total = %d, want %d", s.Total(), len(arcs))
	}
	out := make([]Arc, 0, len(arcs))
	if err := s.Iterate(nil, func(a Arc) error {
		out = append(out, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func randomArcs(r *rand.Rand, n, idRange int) []Arc {
	arcs := make([]Arc, n)
	for i := range arcs {
		arcs[i] = Arc{U: uint32(r.Intn(idRange)), V: uint32(r.Intn(idRange))}
	}
	return arcs
}

func TestInMemoryPath(t *testing.T) {
	arcs := randomArcs(rand.New(rand.NewSource(1)), 500, 100)
	dir := t.TempDir()
	s := NewSorter(dir, 2000, nil)
	defer s.Close()
	for _, a := range arcs {
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	var got []Arc
	if err := s.Iterate(nil, func(a Arc) error { got = append(got, a); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, sortedCopy(arcs)) {
		t.Fatal("in-memory path missorted")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("in-memory sort touched its directory: %v", entries)
	}
}

func TestSpillingPath(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewIOCounter(256)
	s := NewSorter(dir, 64, ctr) // 157 runs of 32 arcs
	arcs := randomArcs(rand.New(rand.NewSource(2)), 5000, 300)
	for _, a := range arcs {
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	var got []Arc
	if err := s.Iterate(nil, func(a Arc) error { got = append(got, a); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, sortedCopy(arcs)) {
		t.Fatal("spilling path missorted")
	}
	if ctr.Writes() == 0 || ctr.Reads() == 0 {
		t.Fatalf("spill traffic uncounted: reads=%d writes=%d", ctr.Reads(), ctr.Writes())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("want exactly the private spill directory before Close, got %v", entries)
	}
	if runs, _ := os.ReadDir(filepath.Join(dir, entries[0].Name())); len(runs) != 0 {
		t.Fatalf("Iterate left its runs %v behind", runs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Close left %v behind", entries)
	}
}

// TestIterateByRank: Iterate with a rank streams every arc with its
// source replaced by the source's rank, in (rank, target) order, on the
// in-memory path and through spilled runs, which are sorted only then,
// at id counts on both sides of powers of two (a ranked key is 0 to 34
// bits). An endpoint the rank does not cover is an error.
func TestIterateByRank(t *testing.T) {
	for _, ids := range []int{1, 300, 512, 513, 70000} {
		rank := rand.New(rand.NewSource(4)).Perm(ids)
		ranks := make([]uint32, ids)
		for i, r := range rank {
			ranks[i] = uint32(r)
		}
		arcs := randomArcs(rand.New(rand.NewSource(3)), 5000, ids)
		want := make([]Arc, len(arcs))
		for i, a := range arcs {
			want[i] = Arc{U: ranks[a.U], V: a.V}
		}
		want = sortedCopy(want)
		for _, budget := range []int{64, 1 << 20} {
			s := NewSorter(t.TempDir(), budget, stats.NewIOCounter(256))
			for _, a := range arcs {
				if err := s.Add(a); err != nil {
					t.Fatal(err)
				}
			}
			var got []Arc
			if err := s.Iterate(ranks, func(a Arc) error { got = append(got, a); return nil }); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if !slices.Equal(got, want) {
				t.Fatalf("%d ids, budget %d: the arcs did not come out in rank order", ids, budget)
			}
			for _, a := range []Arc{{U: uint32(ids), V: 0}, {U: 0, V: uint32(ids)}} {
				short := NewSorter(t.TempDir(), budget, nil)
				short.Add(a)
				if err := short.Iterate(ranks, func(Arc) error { return nil }); err == nil {
					t.Fatalf("%d ids, budget %d: arc %v, past the ranked ids, was accepted", ids, budget, a)
				}
				short.Close()
			}
		}
	}
}

// TestDamagedRunFailsMerge flips one byte of a spilled run before the
// merge: the run's reader holds every block to the checksum its writer
// recorded, so Iterate fails instead of merging the damaged arc. The
// runs of the first sorter are a block each; those of the second are 32,
// and the flipped byte lies in the middle of the second FlushBlocks-block
// read, which fails at that block.
func TestDamagedRunFailsMerge(t *testing.T) {
	s := NewSorter(t.TempDir(), 64, stats.NewIOCounter(256))
	defer s.Close()
	arcs := randomArcs(rand.New(rand.NewSource(2)), 5000, 300)
	for _, a := range arcs {
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) < 2 {
		t.Fatalf("%d runs spilled, want several", len(s.runs))
	}
	path := s.runs[len(s.runs)/2].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	merged := 0
	err = s.Iterate(nil, func(Arc) error { merged++; return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("merge of a damaged run: err = %v after %d of %d arcs, want a checksum error", err, merged, len(arcs))
	}

	const B, blk = 256, storage.FlushBlocks * 3 / 2
	s = NewSorter(t.TempDir(), 2*32*B/arcBytes, stats.NewIOCounter(B))
	defer s.Close()
	for _, a := range arcs {
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	path = s.runs[1].path
	if data, err = os.ReadFile(path); err != nil || len(data) != 32*B {
		t.Fatalf("run %s: %d bytes (%v), want 32 blocks", path, len(data), err)
	}
	data[blk*B+B/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Iterate(nil, func(Arc) error { return nil })
	if want := fmt.Sprintf("block %d of %s corrupt", blk, path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("merge of a run damaged in block %d: err = %v, want %q", blk, err, want)
	}
}

// TestIterateStopsWhenTheCallbackFails fails fn partway through the merge
// of spilled runs, at the first arc, inside the first batch the merge's
// goroutine hands over and past it: Iterate returns fn's error, calls fn
// no more, removes the runs and leaves no goroutine behind.
func TestIterateStopsWhenTheCallbackFails(t *testing.T) {
	arcs := randomArcs(rand.New(rand.NewSource(2)), 40000, 3000)
	stop := errors.New("stop")
	before := runtime.NumGoroutine()
	for _, failAt := range []int{1, 100, mergeBatchKeys + 7, 3*mergeBatchKeys + 1} {
		dir := t.TempDir()
		s := NewSorter(dir, 4096, nil)
		for _, a := range arcs {
			if err := s.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		err := s.Iterate(nil, func(Arc) error {
			calls++
			if calls == failAt {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || calls != failAt {
			t.Fatalf("fail at %d: err = %v after %d calls, want fn's error at once", failAt, err, calls)
		}
		entries, _ := os.ReadDir(dir)
		if runs, _ := os.ReadDir(filepath.Join(dir, entries[0].Name())); len(runs) != 0 {
			t.Fatalf("fail at %d: Iterate left its runs %v behind", failAt, runs)
		}
		s.Close()
	}
	// A merge goroutine that was told to stop exits at once; one left
	// blocked on its next batch never does.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before and %d after the failed merges", before, after)
	}
}

// TestSpillBoundaryExact walks the arc count across the buffer size (half the
// budget): one short stays in memory, exact is one run and an empty tail,
// one over is a run and a one-arc tail run.
func TestSpillBoundaryExact(t *testing.T) {
	const budget = 16
	for n := budget/2 - 1; n <= budget/2+1; n++ {
		arcs := make([]Arc, n)
		for i := range arcs {
			arcs[i] = Arc{U: uint32(n - i), V: 0}
		}
		if got := sortThrough(t, arcs, budget, 0); !slices.Equal(got, sortedCopy(arcs)) {
			t.Fatalf("n=%d: got %v", n, got)
		}
	}
}

func TestCloseWithoutIterate(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(dir, 8, nil)
	for i := 0; i < 100; i++ {
		if err := s.Add(Arc{U: uint32(i), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Close left %v behind", entries)
	}
	if err := s.Iterate(nil, func(Arc) error { return nil }); err == nil {
		t.Fatal("Iterate after Close succeeded")
	}
}

func TestIterateTwiceIsAnError(t *testing.T) {
	for _, budget := range []int{4, 1000} { // spilled and in memory
		s := NewSorter(t.TempDir(), budget, nil)
		for i := 0; i < 10; i++ {
			if err := s.Add(Arc{U: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Iterate(nil, func(Arc) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := s.Iterate(nil, func(Arc) error { return nil }); err == nil {
			t.Fatalf("budget %d: second Iterate succeeded", budget)
		}
		s.Close()
	}
}

// TestSortersShareADirectory interleaves two sorters' spills in one
// directory: neither may see, overwrite or remove the other's runs.
func TestSortersShareADirectory(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(3))
	a, b := randomArcs(r, 900, 50), randomArcs(r, 700, 1<<20)
	sa, sb := NewSorter(dir, 32, nil), NewSorter(dir, 32, nil)
	defer sa.Close()
	for i := range a {
		if err := sa.Add(a[i]); err != nil {
			t.Fatal(err)
		}
		if i < len(b) {
			if err := sb.Add(b[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var gotB []Arc
	if err := sb.Iterate(nil, func(x Arc) error { gotB = append(gotB, x); return nil }); err != nil {
		t.Fatal(err)
	}
	sb.Close() // must not take sa's runs with it
	var gotA []Arc
	if err := sa.Iterate(nil, func(x Arc) error { gotA = append(gotA, x); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotA, sortedCopy(a)) || !slices.Equal(gotB, sortedCopy(b)) {
		t.Fatal("sorters sharing a directory corrupted each other")
	}
}

// TestBudgetBoundsArcMemory is the white-box half of the SortBudgetArcs
// contract: after every Add, and after the sorts Iterate triggers, the
// key buffer and the radix scratch together hold at most budget arcs.
func TestBudgetBoundsArcMemory(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, budget := range []int{1, 2, 3, 7, 64, 2*radixCutoff - 1, 2 * radixCutoff, 2*radixCutoff + 1, 5000} {
		for _, n := range []int{budget/2 - 1, budget, 3*budget + 1} {
			s := NewSorter(t.TempDir(), budget, nil)
			check := func(when string) {
				if held := cap(s.buf) + cap(s.scratch); held > budget {
					t.Fatalf("budget %d, %d arcs, %s: buffer %d + scratch %d arcs held",
						budget, n, when, cap(s.buf), cap(s.scratch))
				}
			}
			for i := 0; i < n; i++ {
				if err := s.Add(Arc{U: r.Uint32(), V: r.Uint32()}); err != nil {
					t.Fatal(err)
				}
				check("after Add")
			}
			first := true
			if err := s.Iterate(nil, func(Arc) error {
				if first {
					check("in Iterate")
					first = false
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
	}
}

// TestRunFileFormatAndCharges pins what block-granular run I/O must not
// change: a run is its arcs as little-endian (U, V) pairs, writing a
// arcs is charged ceil(8a/B) blocks and 8a bytes, and reading them back
// the same — also for a block size that is not a whole number of arcs.
func TestRunFileFormatAndCharges(t *testing.T) {
	arcs := sortedCopy(randomArcs(rand.New(rand.NewSource(5)), 1000, math.MaxUint32))
	keys := make([]uint64, len(arcs))
	var want []byte
	for i, a := range arcs {
		keys[i] = a.key()
		want = binary.LittleEndian.AppendUint32(want, a.U)
		want = binary.LittleEndian.AppendUint32(want, a.V)
	}
	for _, blockSize := range []int{4, 100, 512, 4096, 1 << 16} {
		ctr := stats.NewIOCounter(blockSize)
		path := filepath.Join(t.TempDir(), "run")
		run, err := writeRun(path, keys, ctr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("B=%d: run file bytes differ from little-endian (U,V) pairs", blockSize)
		}
		r, err := storage.OpenReader(run.path, run.crcs, ctr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			key, err := nextKey(r)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if err == io.EOF {
				if i != len(keys) {
					t.Fatalf("B=%d: run ended after %d of %d arcs", blockSize, i, len(keys))
				}
				break
			}
			if key != keys[i] {
				t.Fatalf("B=%d: arc %d = %v, want %v", blockSize, i, arcOf(key), arcs[i])
			}
		}
		r.Close()
		blocks := (int64(len(want)) + int64(blockSize) - 1) / int64(blockSize)
		snap := ctr.Snapshot()
		if snap.Writes != blocks || snap.Reads != blocks ||
			snap.WriteBytes != int64(len(want)) || snap.ReadBytes != int64(len(want)) {
			t.Fatalf("B=%d: charged %+v, want %d blocks and %d bytes each way", blockSize, snap, blocks, len(want))
		}
	}
}

// TestArcLessProperty: packed keys order exactly as (source, target)
// pairs do, and unpack to the arc they came from.
func TestArcLessProperty(t *testing.T) {
	f := func(a, b Arc) bool {
		return (a.key() < b.key()) == (cmpArc(a, b) < 0) && arcOf(a.key()) == a
	}
	// A fixed source: testutil, which owns -seed, imports this package.
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(108))}); err != nil {
		t.Fatal(err)
	}
}

// adversarialKeySets are inputs chosen against the radix sort's own
// structure: extreme ids, no varying digit, exactly one varying or one
// constant digit, orders a comparison sort special-cases, and lengths on
// both sides of radixCutoff.
func adversarialKeySets(r *rand.Rand) map[string][]Arc {
	full := func(n int) []Arc {
		arcs := make([]Arc, n)
		for i := range arcs {
			arcs[i] = Arc{U: r.Uint32(), V: r.Uint32()}
		}
		return arcs
	}
	sets := map[string][]Arc{
		"empty":   nil,
		"one":     {{U: 7, V: 9}},
		"extreme": {{U: math.MaxUint32, V: math.MaxUint32}, {U: 0, V: 0}, {U: math.MaxUint32, V: 0}, {U: 0, V: math.MaxUint32}, {U: 0, V: 0}},
		"full32":  full(3000),
		"sorted":  sortedCopy(full(2000)),
	}
	rev := sortedCopy(full(2000))
	slices.Reverse(rev)
	sets["reversed"] = rev
	equal := make([]Arc, 1500)
	for i := range equal {
		equal[i] = Arc{U: 0xDEADBEEF, V: 0x01020304}
	}
	sets["all-equal"] = equal
	oneDigit := make([]Arc, 1500) // only byte 5 of the key varies
	for i := range oneDigit {
		oneDigit[i] = Arc{U: 0xAB00CDEF | uint32(r.Intn(256))<<16, V: 0x11223344}
	}
	sets["one-varying-digit"] = oneDigit
	constDigit := full(1500) // only byte 2 of the key is constant
	for i := range constDigit {
		constDigit[i].V = constDigit[i].V&^0x00FF0000 | 0x00420000
	}
	sets["one-constant-digit"] = constDigit
	extremes := full(1500) // every digit 0x00 or 0xFF: two buckets per pass
	for i := range extremes {
		extremes[i] = Arc{U: uint32(-int32(r.Intn(2))), V: uint32(-int32(r.Intn(2)))}
	}
	sets["two-buckets"] = extremes
	for _, n := range []int{2, radixCutoff - 1, radixCutoff, radixCutoff + 1} {
		sets[fmt.Sprintf("len-%d", n)] = full(n)
	}
	return sets
}

// sortsLike checks the three ways keys get sorted — sortKeys as the
// sorter calls it, radixSort at any length, and a spilling Sorter end to
// end — against slices.SortFunc on the unpacked arcs.
func sortsLike(t testing.TB, arcs []Arc, budget int) {
	t.Helper()
	want := sortedCopy(arcs)
	keys := make([]uint64, len(arcs))
	for _, sorter := range []func(keys, scratch []uint64, width uint) bool{sortKeys, radixSort} {
		for i, a := range arcs {
			keys[i] = a.key()
		}
		scratch := make([]uint64, len(keys))
		got := keys
		if sorter(keys, scratch, 64) {
			got = scratch
		}
		for i, k := range got {
			if arcOf(k) != want[i] {
				t.Fatalf("key sort: arc %d = %v, want %v", i, arcOf(k), want[i])
			}
		}
	}
	if got := sortThrough(t, arcs, budget, 64); !slices.Equal(got, want) {
		t.Fatalf("sorter with budget %d missorted %d arcs", budget, len(arcs))
	}
}

func TestSortAdversarialKeys(t *testing.T) {
	for name, arcs := range adversarialKeySets(rand.New(rand.NewSource(6))) {
		t.Run(name, func(t *testing.T) {
			sortsLike(t, arcs, 2*radixCutoff+2) // radix-sorted runs
			sortsLike(t, arcs, 0)               // in memory
		})
	}
}

func TestSortProperty(t *testing.T) {
	f := func(raw []uint32, budget uint8) bool {
		arcs := make([]Arc, len(raw)/2)
		for i := range arcs {
			arcs[i] = Arc{U: raw[2*i], V: raw[2*i+1]}
		}
		sortsLike(t, arcs, int(budget%32)+2)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(109))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSortArcs feeds arbitrary bytes through the key sorts and a spilling
// Sorter as (U, V) pairs. mask thins the ids so the fuzzer also reaches
// duplicate-heavy and constant-digit inputs from random bytes.
func FuzzSortArcs(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint8(1), uint32(math.MaxUint32))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(3), uint32(math.MaxUint32))
	f.Add(bytes.Repeat([]byte{0xFF, 0, 0x80, 7}, 200), uint8(5), uint32(0x00FF00FF))
	r := rand.New(rand.NewSource(7))
	big := make([]byte, 8*(radixCutoff+3))
	r.Read(big)
	f.Add(big, uint8(200), uint32(math.MaxUint32))
	f.Add(big, uint8(9), uint32(0x3FF))
	f.Fuzz(func(t *testing.T, data []byte, budget uint8, mask uint32) {
		arcs := make([]Arc, len(data)/arcBytes)
		for i := range arcs {
			arcs[i] = Arc{
				U: binary.LittleEndian.Uint32(data[i*arcBytes:]) & mask,
				V: binary.LittleEndian.Uint32(data[i*arcBytes+4:]) & mask,
			}
		}
		sortsLike(t, arcs, int(budget)+1)
	})
}
