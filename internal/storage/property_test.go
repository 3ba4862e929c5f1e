package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
)

// bytesPerID is the fewest bytes, 1 to 4, that hold x.
func bytesPerID(x uint32) int64 {
	w := int64(1)
	for x >= 1<<(8*w) && w < 4 {
		w++
	}
	return w
}

// gapWidth is a list's gap width in a graph on n nodes, worked out from
// the format alone: the width of n−1 for a list of at most one id, else
// the width of its largest gap.
func gapWidth(n int, l []uint32) int64 {
	if len(l) <= 1 {
		return bytesPerID(uint32(n - 1))
	}
	var gap uint32
	for i := 1; i < len(l); i++ {
		gap = max(gap, l[i]-l[i-1])
	}
	return bytesPerID(gap)
}

// fixedBytes is what a list of a graph on n nodes takes in the
// fixed-width form: the first id in the width of n−1, then the gaps.
func fixedBytes(n int, l []uint32) int64 {
	if len(l) == 0 {
		return 0
	}
	return bytesPerID(uint32(n-1)) + gapWidth(n, l)*int64(len(l)-1)
}

// gvBytes is what a list takes in the group-varint form: a control byte
// per four values, and each value, the first id then the gaps, in the
// fewest bytes that hold it.
func gvBytes(l []uint32) int64 {
	sum, prev := int64(len(l)+3)/4, uint32(0)
	for _, u := range l {
		sum += bytesPerID(u - prev)
		prev = u
	}
	return sum
}

// grouped reports whether a list is stored in the group-varint form: when
// that is strictly shorter.
func grouped(n int, l []uint32) bool {
	return gvBytes(l) < fixedBytes(n, l)
}

// listBytes is what a list of a graph on n nodes takes in the edge
// table: the shorter of its two forms.
func listBytes(n int, l []uint32) int64 {
	return min(fixedBytes(n, l), gvBytes(l))
}

// etBytes is the edge table's size for adj.
func etBytes(adj [][]uint32) int64 {
	var sum int64
	for _, l := range adj {
		sum += listBytes(len(adj), l)
	}
	return sum
}

// recordBytes is what a list's record takes in an id-order node table: a
// uvarint of deg<<3 | (w−1) for the fixed-width form, of deg<<3 | 4 for
// the group-varint form, followed then by a uvarint of the bytes its
// values take beyond one each.
func recordBytes(n int, l []uint32) int64 {
	if grouped(n, l) {
		rec := binary.AppendUvarint(nil, uint64(len(l))<<3|4)
		rec = binary.AppendUvarint(rec, uint64(gvBytes(l)-int64(len(l))-int64(len(l)+3)/4))
		return int64(len(rec))
	}
	return int64(len(binary.AppendUvarint(nil, uint64(len(l))<<3|uint64(gapWidth(n, l)-1))))
}

// ntBytes is the id-order node table's size for adj.
func ntBytes(adj [][]uint32) int64 {
	var sum int64
	for _, l := range adj {
		sum += recordBytes(len(adj), l)
	}
	return sum
}

// TestPropertyRoundTrip builds random adjacency structures under random
// block sizes and checks byte-exact reads plus the exact I/O formula of
// an open and a sequential scan: the open reads the sidecar, or, at a
// block size that is no whole number of its granules, is the pass over
// both tables, which builds the node index on the way; the scan then
// reads the node table for the index unless the pass did, and the
// encoded edge table once.
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
		g, err := Open(base, rctr, nil)
		if err != nil {
			return false
		}
		defer g.Close()
		if g.NumArcs() != arcs {
			return false
		}
		B := int64(blockSize)
		blocks := func(bytes int64) int64 { return (bytes + B - 1) / B }
		nt, et := blocks(ntBytes(adj)), blocks(etBytes(adj))
		opened, scan := blocks(sidecarHeader+4*(granules(ntBytes(adj))+granules(etBytes(adj)))), nt+et
		if blockSize%granule != 0 {
			opened, scan = nt+et, et
		}
		if rctr.Reads() != opened {
			return false
		}
		ok := true
		err = graph.ScanAll(g, func(v uint32, nbrs []uint32) error {
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
		return rctr.Reads() == opened+scan
	}
	// A fixed source: testutil, which owns -seed, imports this package.
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(115))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCachedReadDetectsDamage drives the random-access cached
// read path (BlockCache + per-block CRCs — every graph's read route)
// over randomly damaged copies of a random file: flipping any single bit
// or truncating to any shorter length must surface as an error at Open
// or at the read covering the damage, never as silently wrong bytes.
// Undamaged blocks of the same file must still read back byte-exact.
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
		// first stream records the per-block checksums the damaged copies
		// are then held to.
		cache := NewBlockCache(2, blockSize)
		cf, err := cache.Open(path, nil, ctr)
		if err != nil {
			return false
		}
		var whole uint32
		if err := cf.stream(func(blk []byte) error {
			whole = crc32.Update(whole, castagnoli, blk)
			return nil
		}); err != nil || whole != crc32.Checksum(data, castagnoli) || !slices.Equal(cf.crcs, bw.BlockCRCs()) {
			cf.Close()
			return false
		}
		crcs := cf.crcs
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(116))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomAccessCost verifies the random-access cost model, on
// cold frames: the first point read pays the node table once, ⌈nt/B⌉
// blocks for the index, and from then on reading one node's neighbours
// costs exactly the edge blocks its encoded list spans — at most
// ⌈len/B⌉ + 1 — and no node-table block.
// B = 512 is a whole granule, so the open reads the sidecar and leaves
// the index to the first use.
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
		blockSize := 512
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
		g, err := Open(base, rctr, nil)
		if err != nil {
			return false
		}
		defer g.Close()
		B := int64(blockSize)
		for trial := 0; trial < 20; trial++ {
			v := uint32(r.Intn(n))
			invalidateBuffers(g)
			before := rctr.Reads()
			nbrs, err := g.Neighbors(v, nil)
			if err != nil || len(nbrs) == 0 {
				return false
			}
			cost := rctr.Reads() - before
			l, err := g.record(v)
			if err != nil || rctr.Reads()-before != cost {
				return false // a record read after the first use costs nothing
			}
			want := (l.off+listBytes(n, adj[v])-1)/B - l.off/B + 1
			if want > (listBytes(n, adj[v])+B-1)/B+1 {
				return false
			}
			if trial == 0 {
				want += (ntBytes(adj) + B - 1) / B
			}
			if cost != want {
				t.Logf("seed %d trial %d: Neighbors(%d) cost %d reads, want %d", seed, trial, v, cost, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(117))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyResident holds Resident to what it promises, on random
// banded graphs with hubs longer than a block, read at B = 512 through a
// 6-frame verified cache in random order: it is false before the index
// exists and for every list that takes more than B bytes; otherwise it is
// true exactly when Neighbors then reads nothing; and asking changes no
// frame's reference bit, no counter and no read count.
func TestPropertyResident(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 300 + r.Intn(300)
		adj := make([][]uint32, n)
		hub := func(v int) bool { return v%97 == 0 }
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				near := u != v && u >= v-3 && u <= v+3
				if near || (u != v && (hub(u) || hub(v)) && (u+v)%2 == 0) {
					adj[v] = append(adj[v], uint32(u))
				}
			}
		}
		base := filepath.Join(t.TempDir(), "g")
		const blockSize = 512
		b, err := NewBuilder(base, uint32(n), stats.NewIOCounter(blockSize))
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
		ctr := stats.NewIOCounter(blockSize)
		cache := NewBlockCache(6, blockSize)
		g, err := Open(base, ctr, cache)
		if err != nil {
			return false
		}
		defer g.Close()
		if g.Resident(0) {
			t.Logf("seed %d: resident before the index exists", seed)
			return false
		}
		refs := func() []bool {
			var out []bool
			for _, fr := range cache.frames {
				out = append(out, fr.ref)
			}
			return out
		}
		for trial := 0; trial < 200; trial++ {
			v := uint32(r.Intn(n))
			if trial%3 != 0 {
				v = uint32(r.Intn(8)) + uint32(n/2) // revisit a few nodes so some are resident
			}
			st, reads, ref := cache.Stats(), ctr.Reads(), refs()
			res := g.Resident(v)
			if cache.Stats() != st || ctr.Reads() != reads || !slices.Equal(refs(), ref) {
				t.Logf("seed %d trial %d: Resident(%d) touched the cache", seed, trial, v)
				return false
			}
			if _, err := g.Neighbors(v, nil); err != nil {
				return false
			}
			paid := ctr.Reads() != reads
			if long := listBytes(n, adj[v]) > blockSize; (long && res) || (!long && res == paid) {
				t.Logf("seed %d trial %d: Resident(%d) = %v, degree %d, the read paid %v", seed, trial, v, res, len(adj[v]), paid)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(131))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScanVerified holds the one verified pass — a checkpoint's
// or a fold-back's scan of its pinned view (a handle from Reopen, as
// here): ScanVerified, then graph.ScanAll over the handle — to what it
// promises, on random graphs at B in {64, 512, 4096}, every third one
// with a hub whose list is longer than the 64 frames Open reads through
// at B = 64:
//
//   - an undamaged graph passes, every list as written, for exactly
//     ceil(nt/B) + ceil(et/B) block reads, whether the handle builds its
//     own index or shares the one the graph built;
//   - a flipped byte anywhere in either table, and either table
//     truncated, fails Open or the scan;
//   - a flipped byte in the node table after the graph has built the
//     index the pinned handle shares fails the scan: the node table's
//     stream is the only read of it;
//   - a node record whose gap width is changed, which moves every later
//     list, breaks the tiling of the edge table and is reported as that
//     — a shortest varint still, under a header that vouches for the
//     damaged node table, so nothing else can catch it first, with and
//     without header checksums;
//   - a header without checksums passes clean tables.
func TestPropertyScanVerified(t *testing.T) {
	nop := func(uint32, []uint32) error { return nil }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		blockSize := []int{64, 512, 4096}[r.Intn(3)]
		n := 2 + r.Intn(300)
		hub := -1
		if r.Intn(3) == 0 {
			n, hub = 6000, r.Intn(6000)
		}
		adj := make([][]uint32, n)
		for v := range adj {
			deg := min(r.Intn(8), n-1)
			if v == hub {
				deg = 4400 + r.Intn(1200) // gaps of one byte: over 4,096 bytes
			}
			seen := map[uint32]bool{uint32(v): true}
			for len(adj[v]) < deg {
				if u := uint32(r.Intn(n)); !seen[u] {
					seen[u] = true
					adj[v] = append(adj[v], u)
				}
			}
			sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		}
		if len(adj[0])+len(adj[1]) == 0 {
			adj[0], adj[1] = []uint32{1}, []uint32{0} // the tiling case needs a non-empty table
		}
		dir := t.TempDir()
		base := filepath.Join(dir, "g")
		b, err := NewBuilder(base, uint32(n), stats.NewIOCounter(blockSize))
		if err != nil {
			return false
		}
		for v := range adj {
			if err := b.AppendList(uint32(v), adj[v]); err != nil {
				return false
			}
		}
		if err := b.Close(); err != nil {
			return false
		}
		meta, err := ReadMeta(base)
		if err != nil {
			return false
		}
		nt, _ := os.ReadFile(base + ".nt")
		et, _ := os.ReadFile(base + ".et")

		// scanAfter opens whatever is at base and runs the verified pass on
		// a second handle, which reads nothing to open, and a counter of
		// its own. With afterIndex set the graph builds its index first,
		// which the second handle shares, and then runs afterIndex.
		scanAfter := func(afterIndex func(), fn func(uint32, []uint32) error) (reads int64, err error) {
			own := stats.NewIOCounter(blockSize)
			g, err := Open(base, own, nil)
			if err != nil {
				return 0, err
			}
			defer g.Close()
			if afterIndex != nil {
				if _, err := g.Degree(0); err != nil {
					return 0, err
				}
				afterIndex()
			}
			opened := own.Reads()
			h, err := g.Reopen()
			if err != nil {
				return 0, err
			}
			defer h.Close()
			if afterIndex != nil && h.idx != g.idx {
				t.Errorf("seed %d: the second handle does not share the index the graph built", seed)
			}
			ctr := stats.NewIOCounter(blockSize)
			if err = h.ScanVerified(ctr); err == nil {
				err = graph.ScanAll(h, fn)
			}
			if own.Reads() != opened {
				t.Errorf("seed %d: the second handle or its pass charged the counter the graph was opened with", seed)
			}
			return ctr.Reads(), err
		}
		scan := func(fn func(uint32, []uint32) error) (int64, error) { return scanAfter(nil, fn) }
		restore := func() {
			os.WriteFile(base+".nt", nt, 0o644)
			os.WriteFile(base+".et", et, 0o644)
			WriteMetaFS(faultfs.OS, base, meta, false)
		}

		// Clean: the lists as written, at the sequential price, on a
		// handle of its own index and on one sharing the graph's.
		B := int64(blockSize)
		blocks := (int64(len(nt))+B-1)/B + (int64(len(et))+B-1)/B
		for _, afterIndex := range []func(){nil, func() {}} {
			ok := true
			reads, err := scanAfter(afterIndex, func(v uint32, nbrs []uint32) error {
				if len(nbrs) != len(adj[v]) {
					ok = false
					return nil
				}
				for i := range nbrs {
					ok = ok && nbrs[i] == adj[v][i]
				}
				return nil
			})
			if err != nil || !ok || reads != blocks {
				t.Logf("seed %d B=%d index shared %v: clean scan: err %v, lists ok %v, %d reads for %d blocks", seed, blockSize, afterIndex != nil, err, ok, reads, blocks)
				return false
			}
		}

		// The node table damaged under a graph that has read it into its
		// index: the pinned handle reads the table only in its stream.
		flip := func() {
			data := append([]byte(nil), nt...)
			data[r.Intn(len(data))] ^= 1 << uint(r.Intn(8))
			os.WriteFile(base+".nt", data, 0o644)
		}
		if _, err := scanAfter(flip, nop); err == nil {
			t.Logf("seed %d: node table damaged after the index was built not detected", seed)
			return false
		}
		restore()

		// A flipped byte anywhere, a truncation of either table.
		for _, ext := range []string{".nt", ".et"} {
			data := append([]byte(nil), map[string][]byte{".nt": nt, ".et": et}[ext]...)
			data[r.Intn(len(data))] ^= 1 << uint(r.Intn(8))
			os.WriteFile(base+ext, data, 0o644)
			if _, err := scan(nop); err == nil {
				t.Logf("seed %d: flipped byte in %s not detected", seed, ext)
				return false
			}
			os.Truncate(base+ext, int64(r.Intn(len(data))))
			if _, err := scan(nop); err == nil {
				t.Logf("seed %d: truncated %s not detected", seed, ext)
				return false
			}
			restore()
		}

		// A broken tiling the header vouches for: the first fixed-width
		// list of two or more ids gets another gap width in the two low
		// bits of its record's first byte, which moves every later list —
		// the record still a shortest varint, the node-table checksum
		// recomputed to match.
		var at int64
		for _, l := range adj {
			if len(l) >= 2 && !grouped(n, l) {
				bad := append([]byte(nil), nt...)
				bad[at] ^= 1 + byte(r.Intn(3))
				os.WriteFile(base+".nt", bad, 0o644)
				for _, hasCRC := range []bool{true, false} {
					m := meta
					m.HasCRC, m.NtCRC = hasCRC, crc32.Checksum(bad, castagnoli)
					WriteMetaFS(faultfs.OS, base, m, false)
					if _, err := scan(nop); err == nil || !strings.Contains(err.Error(), "-byte edge table") {
						t.Logf("seed %d: broken tiling (header checksums %v): %v", seed, hasCRC, err)
						return false
					}
				}
				restore()
				break
			}
			at += recordBytes(n, l)
		}

		// No checksums in the header: clean tables pass.
		m := meta
		m.HasCRC = false
		WriteMetaFS(faultfs.OS, base, m, false)
		if _, err := scan(nop); err != nil {
			t.Logf("seed %d: a header without checksums: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(118))}); err != nil {
		t.Fatal(err)
	}
}
