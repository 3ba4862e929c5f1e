package kcore_test

import (
	"os"
	"strings"
	"testing"

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
