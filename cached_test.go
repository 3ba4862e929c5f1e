package kcore_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/gen"
)

// TestCachedOpenIOGate pins what opening a graph through the block cache
// costs: one sequential pass over both tables — the pass that records the
// per-block checksums every later cache fill is verified against, and
// checks the whole-table ones against the header — and not one block
// more, nor any write (nothing is copied or laid out anew).
func TestCachedOpenIOGate(t *testing.T) {
	g := buildFrom(t, gen.RMAT(13, 12, .57, .19, .19, 1), 0)
	var blocks int64
	for _, ext := range []string{".nt", ".et"} {
		fi, err := os.Stat(g.Base() + ext)
		if err != nil {
			t.Fatal(err)
		}
		blocks += (fi.Size() + 4095) / 4096
	}
	cg, err := kcore.Open(g.Base(), &kcore.OpenOptions{CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	if io := cg.IOStats(); io.Reads != blocks || io.Writes != 0 {
		t.Errorf("cached Open charged %d reads and %d writes, want exactly the %d table blocks and none", io.Reads, io.Writes, blocks)
	}
	if ds := cg.DiskStats(); ds.CacheHits+ds.CacheMisses != 0 {
		t.Errorf("the open pass went through the cache: %+v", ds)
	}
	if io := g.IOStats(); io.Reads != 0 {
		t.Errorf("an uncached Open charged %d reads", io.Reads)
	}
}

// TestCachedGraphRefusesDamagedBlocks: a graph read through the block
// cache never serves bytes that disagree with its header. A table whose
// checksum does not match fails Open; a block damaged after Open — here
// one byte of a neighbour id, in a block the cache does not hold — fails
// the first operation that fetches it, with the checksum error and no
// neighbour list, and keeps failing; blocks around it still read.
func TestCachedGraphRefusesDamagedBlocks(t *testing.T) {
	g := buildFrom(t, gen.RMAT(10, 8, .57, .19, .19, 2), 0)
	base, n := g.Base(), g.NumNodes()
	opts := &kcore.OpenOptions{BlockSize: 512, CacheBlocks: 4}
	flip := func(off int64) {
		t.Helper()
		f, err := os.OpenFile(base+".et", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}

	cg, err := kcore.Open(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	m, err := kcore.NewMaintainer(cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the four frames with the head of the tables, then damage the
	// last edge-table block: the low byte of its last neighbour id.
	if _, err := cg.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(base + ".et")
	if err != nil {
		t.Fatal(err)
	}
	flip(fi.Size() - 4)
	last := n - 1
	for d, _ := cg.Degree(last); d == 0; d, _ = cg.Degree(last) {
		last-- // the node whose list ends the table
	}
	nbrs, err := cg.Neighbors(last)
	if err == nil || !strings.Contains(err.Error(), "corrupt") || nbrs != nil {
		t.Fatalf("Neighbors(%d) over a damaged block = %v, %v; want the checksum error and no list", last, nbrs, err)
	}
	if _, err := m.DeleteEdge(last, 0); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("a maintenance operation that fetches the damaged block: %v, want the checksum error", err)
	}
	if _, err := cg.Neighbors(0); err != nil {
		t.Errorf("an undamaged block stopped reading: %v", err)
	}

	// The same damage, found at Open: the open pass checks each table
	// against the header.
	if bad, err := kcore.Open(base, opts); err == nil {
		bad.Close()
		t.Fatal("Open accepted an edge table whose checksum does not match the header")
	}
}

// TestCorruptNodeRecordIsAnError: a node record whose list cannot lie in
// the edge table — here degree ≥ 0xff000000, which used to size a 16 GiB
// scratch buffer and end the process with "out of memory" — is an error
// from the first read that meets it, on the default open (which takes
// the tables on trust, and so must name the node itself) and through a
// verifying cache (whose block checksum catches it first).
func TestCorruptNodeRecordIsAnError(t *testing.T) {
	for _, frames := range []int{0, 4} {
		g := buildFrom(t, gen.RMAT(10, 8, .57, .19, .19, 2), 0)
		cg, err := kcore.Open(g.Base(), &kcore.OpenOptions{CacheBlocks: frames})
		if err != nil {
			t.Fatal(err)
		}
		defer cg.Close()
		nt, err := os.OpenFile(g.Base()+".nt", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = nt.WriteAt([]byte{0xff}, 5*12+11) // the top byte of node 5's degree
		nt.Close()
		if err != nil {
			t.Fatal(err)
		}
		nbrs, err := cg.Neighbors(5)
		if err == nil || nbrs != nil {
			t.Fatalf("CacheBlocks %d: Neighbors(5) = %d neighbours, %v; want an error and no list", frames, len(nbrs), err)
		}
		if frames == 0 && !strings.Contains(err.Error(), "node 5") {
			t.Errorf("CacheBlocks 0: %v, want the error to name node 5", err)
		}
		if _, err := cg.Degree(5); err == nil {
			t.Errorf("CacheBlocks %d: Degree(5) read the record without complaint", frames)
		}
	}
}

// deleteInsertRound deletes the edges with SemiDelete*, puts them back
// with SemiInsert*, and reports the block reads of each half.
func deleteInsertRound(tb testing.TB, m *kcore.Maintainer, round []kcore.Edge) (deleteReads, insertReads int64) {
	tb.Helper()
	for _, e := range round {
		info, err := m.DeleteEdge(e.U, e.V)
		if err != nil {
			tb.Fatal(err)
		}
		deleteReads += info.IO.Reads
	}
	for _, e := range round {
		info, err := m.InsertEdge(e.U, e.V)
		if err != nil {
			tb.Fatal(err)
		}
		insertReads += info.IO.Reads
	}
	return deleteReads, insertReads
}

// TestCacheSizeIOLaw is the ruling that put every graph on the block
// cache, as a law: what Open reads through by default (64 frames) never
// costs more than one block over what a one-block buffer per table cost —
// the pins are the counts of the last tree that had such buffers, each
// plus one — for the three decompositions and for a 50-edge
// SemiDelete* / SemiInsert* round, on a skewed and on a chain-ordered
// graph at two block sizes. And a two-frame cache is not that buffer
// pair: the edge stream evicts the node-table block, so it reads
// strictly more than the default on every row, which is why the default
// is not smaller (the deletes aside, which can tie).
func TestCacheSizeIOLaw(t *testing.T) {
	type pins struct{ basic, plus, star, del, ins int64 }
	for _, fx := range []struct {
		name  string
		edges []kcore.Edge
		pins  map[int]pins // by block size
	}{
		{"rmat13", gen.RMAT(13, 12, .57, .19, .19, 1), map[int]pins{
			4096: {1644, 1512, 840, 154, 6436},
			512:  {13089, 10869, 4830, 296, 22533},
		}},
		{"ba", gen.BarabasiAlbert(8000, 6, 3), map[int]pins{
			4096: {4390, 4275, 1270, 116, 41432},
			512:  {34783, 30700, 6610, 147, 196514},
		}},
	} {
		base := filepath.Join(t.TempDir(), fx.name)
		if err := kcore.Build(base, kcore.SliceEdges(fx.edges), nil); err != nil {
			t.Fatal(err)
		}
		round := gen.Build(fx.edges).EdgeList() // u < v, sorted, no duplicates or loops
		rand.New(rand.NewSource(23)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		round = round[:50]
		// run opens the graph on the given frames and returns the reads of
		// SemiCore, SemiCore+, SemiCore*, the deletes and the inserts, the
		// verified open's pass (CacheBlocks > 0) left out.
		run := func(blockSize, frames int) [5]int64 {
			g, err := kcore.Open(base, &kcore.OpenOptions{BlockSize: blockSize, CacheBlocks: frames})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			var got [5]int64
			var star *kcore.Result
			for i, algo := range []kcore.Algorithm{kcore.SemiCoreBasic, kcore.SemiCorePlus, kcore.SemiCoreStar} {
				if star, err = kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo}); err != nil {
					t.Fatal(err)
				}
				got[i] = star.Info.IO.Reads
			}
			m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: star})
			if err != nil {
				t.Fatal(err)
			}
			got[3], got[4] = deleteInsertRound(t, m, round)
			return got
		}
		for blockSize, p := range fx.pins {
			def, two := run(blockSize, 0), run(blockSize, 2)
			t.Logf("%s B=%d: default %v, two frames %v", fx.name, blockSize, def, two)
			for i, pin := range [5]int64{p.basic, p.plus, p.star, p.del, p.ins} {
				what := [5]string{"SemiCore", "SemiCore+", "SemiCore*", "50 deletes", "50 inserts"}[i]
				if def[i] > pin+1 {
					t.Errorf("%s B=%d: %s read %d blocks by default, one-block buffers read %d", fx.name, blockSize, what, def[i], pin)
				}
				if i != 3 && two[i] <= def[i] { // deletes touch too few blocks to always tell
					t.Errorf("%s B=%d: %s read %d blocks through two frames, %d by default: want strictly more", fx.name, blockSize, what, two[i], def[i])
				}
			}
		}
	}
}

// BenchmarkCacheSweepRMAT17 re-runs the measurement behind that ruling
// (docs/ARCHITECTURE.md, "Block readers: what a cache buys") on the
// benchmark's fixture: per frame budget — 0 is the default open — the
// block reads and time of SemiCore*, then the reads per edge of 100
// SemiDelete* and 100 SemiInsert*. The verified open's pass over the
// tables (frames > 0) is not in the counts.
func BenchmarkCacheSweepRMAT17(b *testing.B) {
	edges := gen.RMAT(17, 12, .57, .19, .19, 1)
	base := filepath.Join(b.TempDir(), "rmat17")
	if err := kcore.Build(base, kcore.SliceEdges(edges), &kcore.BuildOptions{NumNodes: 1 << 17}); err != nil {
		b.Fatal(err)
	}
	round := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
	rand.New(rand.NewSource(1)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	round = round[:100]
	for _, frames := range []int{0, 2, 16, 64, 512, 1024} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			var decompose, del, ins int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: frames})
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.SemiCoreStar})
				if err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(t0)
				decompose = res.Info.IO.Reads
				m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
				if err != nil {
					b.Fatal(err)
				}
				del, ins = deleteInsertRound(b, m, round)
				g.Close()
			}
			b.ReportMetric(float64(decompose), "decompose-reads")
			b.ReportMetric(float64(del)/float64(len(round)), "delete-reads/edge")
			b.ReportMetric(float64(ins)/float64(len(round)), "insert-reads/edge")
			b.ReportMetric(float64(elapsed.Milliseconds())/float64(b.N), "decompose-ms")
		})
	}
}
