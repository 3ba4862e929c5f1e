package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"kcore/internal/stats"
)

// TestPropertyCRC32CCombine: folding checksums is checksumming the whole.
// For random byte strings — empty ones, lengths that are and are not
// multiples of the granule — split at random points, combining the parts'
// CRC32Cs gives crc32.Update over the whole; a BlockWriter fed the string
// in random chunks records one checksum per granule, the last one short;
// and folding those gives every block's and the whole string's checksum
// at each block size the sidecar serves.
func TestPropertyCRC32CCombine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := []int{0, 1, granule - 1, granule, granule + 1, 3 * granule}[r.Intn(6)]
		if r.Intn(2) == 0 {
			size = r.Intn(20 * granule)
		}
		data := make([]byte, size)
		r.Read(data)
		whole := crc32.Checksum(data, castagnoli)

		cut := r.Intn(size + 1)
		a, b := data[:cut], data[cut:]
		if got := crc32cCombine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), int64(len(b))); got != whole {
			t.Logf("seed %d: combine of %d+%d bytes = %08x, want %08x", seed, len(a), len(b), got, whole)
			return false
		}

		path := filepath.Join(t.TempDir(), "f")
		w, err := CreateBlockWriter(path, stats.NewIOCounter(64+r.Intn(4000)))
		if err != nil {
			t.Fatal(err)
		}
		w.keepGranules = true
		for rest := data; len(rest) > 0; {
			n := min(len(rest), 1+r.Intn(2*granule))
			if _, err := w.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		gs := w.granuleCRCs()
		if int64(len(gs)) != granules(int64(size)) {
			t.Logf("seed %d: %d granule checksums for %d bytes", seed, len(gs), size)
			return false
		}
		for i, g := range gs {
			if want := crc32.Checksum(data[i*granule:min((i+1)*granule, size)], castagnoli); g != want {
				t.Logf("seed %d: granule %d checksum %08x, want %08x", seed, i, g, want)
				return false
			}
		}
		for _, bs := range []int{granule, 2 * granule, 4096} {
			blocks, folded := foldGranules(gs, int64(size), bs)
			if folded != whole || len(blocks) != (size+bs-1)/bs {
				t.Logf("seed %d B=%d: fold %08x over %d blocks, want %08x", seed, bs, folded, len(blocks), whole)
				return false
			}
			for i, blk := range blocks {
				if want := crc32.Checksum(data[i*bs:min((i+1)*bs, size)], castagnoli); blk != want {
					t.Logf("seed %d B=%d: block %d checksum %08x, want %08x", seed, bs, i, blk, want)
					return false
				}
			}
		}
		return true
	}
	// A fixed source: testutil, which owns -seed, imports this package.
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(112))}); err != nil {
		t.Fatal(err)
	}
}

// randomAdj draws a simple undirected graph on n nodes, lists sorted,
// with at least one edge.
func randomAdj(r *rand.Rand, n int) [][]uint32 {
	adj := make([][]uint32, n)
	for e := r.Intn(4 * n); e >= 0; e-- {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		if u == v || slices.Contains(adj[u], v) {
			continue
		}
		adj[u], adj[v] = append(adj[u], v), append(adj[v], u)
	}
	if len(adj[0]) == 0 && !slices.Contains(adj[1], 0) {
		adj[0], adj[1] = append(adj[0], 1), append(adj[1], 0)
	}
	for _, l := range adj {
		slices.Sort(l)
	}
	return adj
}

// writeAdj builds adj at base.
func writeAdj(t *testing.T, base string, adj [][]uint32) {
	t.Helper()
	b, err := NewBuilder(base, uint32(len(adj)), stats.NewIOCounter(0))
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range adj {
		if err := b.AppendList(uint32(v), l); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// openCounted opens base through a four-frame cache at block size bs and
// reports the open's reads.
func openCounted(base string, bs int) (*Graph, int64, error) {
	ctr := stats.NewIOCounter(bs)
	g, err := Open(base, ctr, NewBlockCache(4, bs))
	return g, ctr.Reads(), err
}

// TestPropertySidecarDamage: a sidecar the header does not vouch for is
// never believed, and costs nothing but its own reads. On random graphs
// at B = 512 and 4096, a clean sidecar opens for exactly its own blocks
// and yields the per-block checksums the pass over the tables records.
// A flipped bit, a truncation, an extension, another graph's sidecar —
// one of the same size, one of another — and none at all each take the
// fallback: exactly the pass's ⌈nt/B⌉ + ⌈et/B⌉ reads, plus the sidecar's
// blocks when it had the expected size and was read, and the same
// checksums. At B = 64, which is no whole number of granules, the
// sidecar is never read and every open is the pass.
func TestPropertySidecarDamage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bs := []int{64, 512, 4096}[r.Intn(3)]
		n := 2 + r.Intn(1500)
		adj := randomAdj(r, n)
		dir := t.TempDir()
		base := filepath.Join(dir, "g")
		writeAdj(t, base, adj)
		clean, err := os.ReadFile(base + ".crc")
		if err != nil {
			t.Fatal(err)
		}
		blocks := func(size int64) int64 { return (size + int64(bs) - 1) / int64(bs) }
		pass := blocks(ntBytes(adj)) + blocks(etBytes(adj))

		// The pass's checksums, with no sidecar to read.
		os.Remove(base + ".crc")
		g, reads, err := openCounted(base, bs)
		if err != nil || reads != pass {
			t.Logf("seed %d B=%d: open without a sidecar: %d reads, want %d (%v)", seed, bs, reads, pass, err)
			return false
		}
		wantNt, wantEt := g.nt.crcs, g.et.crcs
		g.Close()

		// Another graph's sidecars: one with the same table sizes (every
		// id shifted by one), one drawn afresh.
		shifted := make([][]uint32, n)
		for v, l := range adj {
			for _, u := range l {
				shifted[(v+1)%n] = append(shifted[(v+1)%n], uint32((int(u)+1)%n))
			}
		}
		for _, l := range shifted {
			slices.Sort(l)
		}
		var foreign [][]byte
		for i, other := range [][][]uint32{shifted, randomAdj(r, 2+r.Intn(1500))} {
			ob := filepath.Join(dir, fmt.Sprint("other", i))
			writeAdj(t, ob, other)
			data, err := os.ReadFile(ob + ".crc")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, clean) { // a graph that is its own shift has the same tables
				foreign = append(foreign, data)
			}
		}

		flipped := slices.Clone(clean)
		flipped[r.Intn(len(flipped))] ^= 1 << r.Intn(8)
		cases := map[string][]byte{
			"clean":     clean,
			"flipped":   flipped,
			"truncated": clean[:r.Intn(len(clean))],
			"extended":  append(slices.Clone(clean), make([]byte, 1+r.Intn(8))...),
			"deleted":   nil,
		}
		for i, data := range foreign {
			cases[fmt.Sprint("foreign", i)] = data
		}
		for name, data := range cases {
			os.Remove(base + ".crc")
			if data != nil {
				if err := os.WriteFile(base+".crc", data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := pass
			switch {
			case bs == 64:
			case name == "clean":
				want = blocks(int64(len(clean)))
			case len(data) == len(clean):
				want = blocks(int64(len(clean))) + pass
			}
			g, reads, err := openCounted(base, bs)
			if err != nil {
				t.Logf("seed %d B=%d: %s sidecar: %v", seed, bs, name, err)
				return false
			}
			same := slices.Equal(g.nt.crcs, wantNt) && slices.Equal(g.et.crcs, wantEt)
			g.Close()
			if reads != want || !same {
				t.Logf("seed %d B=%d: %s sidecar: %d reads, want %d; checksums as the pass's: %v", seed, bs, name, reads, want, same)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(113))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTableDamageWithSidecar: a valid sidecar vouches for the
// tables as written, not as they are. With a bit flipped anywhere in
// either table of a random graph, the open at B = 512 or 4096 still costs
// only the sidecar's blocks, then the fill of the damaged block fails and
// the fill of every other block of both tables succeeds. At B = 64 the
// open is the pass, and the pass fails.
func TestPropertyTableDamageWithSidecar(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bs := []int{64, 512, 4096}[r.Intn(3)]
		base := filepath.Join(t.TempDir(), "g")
		writeAdj(t, base, randomAdj(r, 2+r.Intn(1500)))
		ext := []string{".nt", ".et"}[r.Intn(2)]
		data, err := os.ReadFile(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		off := r.Intn(len(data))
		data[off] ^= 1 << r.Intn(8)
		if err := os.WriteFile(base+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, _, err := openCounted(base, bs)
		if bs == 64 {
			if err == nil {
				g.Close()
				t.Logf("seed %d: the pass at B=64 accepted a damaged %s", seed, ext)
				return false
			}
			return true
		}
		if err != nil {
			t.Logf("seed %d B=%d: open with a valid sidecar: %v", seed, bs, err)
			return false
		}
		defer g.Close()
		for _, cf := range []*CachedFile{g.nt, g.et} {
			buf := make([]byte, bs)
			for id := int64(0); id*int64(bs) < cf.size; id++ {
				n := min(int64(bs), cf.size-id*int64(bs))
				err := cf.ReadAt(buf[:n], id*int64(bs))
				damaged := cf.path == base+ext && id == int64(off/bs)
				if (err != nil) != damaged {
					t.Logf("seed %d B=%d: %s block %d (damaged: %v): %v", seed, bs, cf.path, id, damaged, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(114))}); err != nil {
		t.Fatal(err)
	}
}
