package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"kcore/internal/stats"
)

// TestPropertyRoundTrip builds random adjacency structures under random
// block sizes and checks byte-exact reads plus the exact sequential-scan
// I/O formula.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, rawBlock uint16) bool {
		r := rand.New(rand.NewSource(seed))
		blockSize := 64 + int(rawBlock)%4032 // 64..4095
		n := 1 + r.Intn(200)
		adj := make([][]uint32, n)
		var arcs int64
		for v := 0; v < n; v++ {
			deg := r.Intn(8)
			seen := map[uint32]bool{}
			for i := 0; i < deg; i++ {
				u := uint32(r.Intn(n))
				if int(u) == v || seen[u] {
					continue
				}
				seen[u] = true
				adj[v] = append(adj[v], u)
			}
			sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
			arcs += int64(len(adj[v]))
		}
		base := filepath.Join(t.TempDir(), "g")
		ctr := stats.NewIOCounter(blockSize)
		b, err := NewBuilder(base, uint32(n), ctr)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if err := b.AppendList(uint32(v), adj[v]); err != nil {
				return false
			}
		}
		if err := b.Close(); err != nil {
			return false
		}
		rctr := stats.NewIOCounter(blockSize)
		g, err := Open(base, rctr)
		if err != nil {
			return false
		}
		defer g.Close()
		if g.NumArcs() != arcs {
			return false
		}
		ok := true
		err = g.Scan(0, uint32(n-1), nil, func(v uint32, nbrs []uint32) error {
			if len(nbrs) != len(adj[v]) {
				ok = false
				return nil
			}
			for i := range nbrs {
				if nbrs[i] != adj[v][i] {
					ok = false
				}
			}
			return nil
		})
		if err != nil || !ok {
			return false
		}
		B := int64(blockSize)
		want := (int64(n)*NodeRecordSize+B-1)/B + (arcs*ArcSize+B-1)/B
		if arcs == 0 {
			want = (int64(n)*NodeRecordSize + B - 1) / B // edge table never touched
		}
		return rctr.Reads() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCachedReadDetectsDamage drives the random-access cached
// read path (BlockCache + per-block CRCs — the disk backend's read
// route) over randomly damaged copies of a random file: flipping any
// single bit or truncating to any shorter length must surface as an
// error at Open or at the read covering the damage, never as silently
// wrong bytes. Undamaged blocks of the same file must still read back
// byte-exact.
func TestPropertyCachedReadDetectsDamage(t *testing.T) {
	f := func(seed int64, rawBlock uint16) bool {
		r := rand.New(rand.NewSource(seed))
		blockSize := 64 + int(rawBlock)%960 // 64..1023
		size := 1 + r.Intn(8*blockSize)
		data := make([]byte, size)
		r.Read(data)
		dir := t.TempDir()
		path := filepath.Join(dir, "clean")
		ctr := stats.NewIOCounter(blockSize)
		bw, err := CreateBlockWriter(path, ctr)
		if err != nil {
			return false
		}
		if _, err := bw.Write(data); err != nil {
			return false
		}
		if err := bw.Close(); err != nil {
			return false
		}

		// The undamaged file reads back byte-exact through the cache; the
		// open pass records the per-block checksums the damaged copies
		// are then held to.
		cache := NewBlockCache(2, blockSize)
		whole := bw.CRC()
		cf, err := cache.OpenVerified(path, &whole, ctr)
		if err != nil {
			return false
		}
		crcs := cf.crcs
		wrong := whole + 1
		if bad, err := cache.OpenVerified(path, &wrong, ctr); err == nil {
			bad.Close()
			return false // a whole-file checksum mismatch must fail the open
		}
		got := make([]byte, size)
		if err := cf.ReadAt(got, 0); err != nil {
			cf.Close()
			return false
		}
		cf.Close()
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}

		// Bit flip: any single damaged bit must fail the read covering its
		// block, while a read confined to other blocks stays correct.
		flipOff := r.Intn(size)
		flipped := append([]byte(nil), data...)
		flipped[flipOff] ^= 1 << uint(r.Intn(8))
		fpath := filepath.Join(dir, "flipped")
		if err := os.WriteFile(fpath, flipped, 0o644); err != nil {
			return false
		}
		cf, err = cache.Open(fpath, crcs, ctr)
		if err != nil {
			return false // same size: damage must be caught at read, not open
		}
		if err := cf.ReadAt(got, 0); err == nil {
			cf.Close()
			return false // full read covers the flipped block: must error
		}
		blk := flipOff / blockSize
		for b := 0; b*blockSize < size; b++ {
			if b == blk {
				continue
			}
			lo := b * blockSize
			hi := min(lo+blockSize, size)
			if err := cf.ReadAt(got[lo:hi], int64(lo)); err != nil {
				cf.Close()
				return false // undamaged block must stay readable
			}
			for i := lo; i < hi; i++ {
				if got[i] != data[i] {
					cf.Close()
					return false
				}
			}
		}
		cf.Close()

		// Truncation: dropping any tail must fail at Open (whole blocks
		// missing — checksum-count cross-check) or at the read covering the
		// now-short final block (short CRC), and the full original extent
		// must never read back successfully.
		cut := 1 + r.Intn(size)
		tpath := filepath.Join(dir, "truncated")
		if err := os.WriteFile(tpath, data[:size-cut], 0o644); err != nil {
			return false
		}
		tf, err := cache.Open(tpath, crcs, ctr)
		if err != nil {
			return true // caught at open: block count no longer matches
		}
		defer tf.Close()
		if err := tf.ReadAt(got, 0); err == nil {
			return false // reading the original extent must fail
		}
		newSize := size - cut
		if newSize > 0 {
			// The surviving prefix either errors on its damaged final block
			// or, when the cut landed exactly on the old final block's
			// boundary... it cannot: same block count at open means the last
			// block shrank, so its CRC no longer matches.
			if err := tf.ReadAt(got[:newSize], 0); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomAccessCost verifies the random-access cost model:
// reading one node's neighbours touches at most 2 node-table blocks and
// ceil(deg*4/B)+1 edge-table blocks.
func TestPropertyRandomAccessCost(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(400)
		adj := make([][]uint32, n)
		for v := 0; v < n; v++ {
			for u := v - 3; u < v+4; u++ {
				if u >= 0 && u < n && u != v {
					adj[v] = append(adj[v], uint32(u))
				}
			}
		}
		base := filepath.Join(t.TempDir(), "g")
		blockSize := 256
		ctr := stats.NewIOCounter(blockSize)
		b, err := NewBuilder(base, uint32(n), ctr)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if err := b.AppendList(uint32(v), adj[v]); err != nil {
				return false
			}
		}
		if err := b.Close(); err != nil {
			return false
		}
		rctr := stats.NewIOCounter(blockSize)
		g, err := Open(base, rctr)
		if err != nil {
			return false
		}
		defer g.Close()
		for trial := 0; trial < 20; trial++ {
			v := uint32(r.Intn(n))
			invalidateBuffers(g)
			before := rctr.Reads()
			nbrs, err := g.Neighbors(v, nil)
			if err != nil {
				return false
			}
			cost := rctr.Reads() - before
			maxCost := int64(2) + int64(len(nbrs)*ArcSize+blockSize-1)/int64(blockSize) + 1
			if cost > maxCost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
