package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// The checksum sidecar <base>.crc holds the CRC32C of every granule-byte
// slice of the node table, then of the edge table (a table's last slice
// may be short), behind an 8-byte header: sidecarMagic and the granule
// size, little-endian. The Builder computes the slices' checksums in the
// pass that writes the tables. Open believes the file only when folding
// its checksums reproduces the header's whole-table CRC32Cs exactly; anything else falls back to the pass over
// the tables, so the file adds no trust root, and a missing, stale or
// damaged one is as good as none.
const (
	// granule is the checksummed slice, fixed apart from the block size:
	// the smallest block size the graph is opened at outside the 64-byte
	// property tests. The sidecar serves every multiple of it.
	granule       = 512
	sidecarMagic  = "kcrc"
	sidecarHeader = 8
)

func crcPath(base string) string { return base + ".crc" }

// granules reports how many granules a table of size bytes has.
func granules(size int64) int64 { return (size + granule - 1) / granule }

// writeSidecar writes the granule checksums of both tables, node table
// first, through fsys, charging its blocks to ctr like any table write.
func writeSidecar(fsys faultfs.FS, base string, crcs []uint32, ctr *stats.IOCounter, durable bool) error {
	w, err := CreateBlockWriterFS(fsys, crcPath(base), ctr)
	if err != nil {
		return err
	}
	buf := make([]byte, sidecarHeader+4*len(crcs))
	copy(buf, sidecarMagic)
	binary.LittleEndian.PutUint32(buf[4:], granule)
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[sidecarHeader+4*i:], c)
	}
	if _, err := w.Write(buf); err != nil {
		w.Close()
		return err
	}
	if durable {
		if err := w.Sync(); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// readSidecar returns the CRC32C of every b-byte block of the node and
// the edge table, folded from the sidecar at base, and whether the
// header vouches for them: b must be a whole number of granules, the
// file must hold exactly one checksum per granule of the tables the
// header describes, and the fold must give the header's whole-table
// checksums. A file of the wrong size is not read; one of the right
// size is charged to ctr, ⌈size/b⌉ blocks, whatever its contents.
func readSidecar(base string, meta Meta, b int, ctr *stats.IOCounter) (nt, et []uint32, ok bool) {
	if b%granule != 0 {
		return nil, nil, false
	}
	ntSize, etSize := meta.NtBytes, meta.EtBytes
	ntG := granules(ntSize)
	size := sidecarHeader + 4*(ntG+granules(etSize))
	if fi, err := os.Stat(crcPath(base)); err != nil || fi.Size() != size {
		return nil, nil, false
	}
	data, err := os.ReadFile(crcPath(base))
	if err != nil || int64(len(data)) != size {
		return nil, nil, false
	}
	ctr.AddReadBlocks((size + int64(b) - 1) / int64(b))
	ctr.AddReadBytes(size)
	if string(data[:4]) != sidecarMagic || binary.LittleEndian.Uint32(data[4:]) != granule {
		return nil, nil, false
	}
	crcs := make([]uint32, (size-sidecarHeader)/4)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(data[sidecarHeader+4*i:])
	}
	nt, ntWhole := foldGranules(crcs[:ntG], ntSize, b)
	et, etWhole := foldGranules(crcs[ntG:], etSize, b)
	if ntWhole != meta.NtCRC || etWhole != meta.EtCRC {
		return nil, nil, false
	}
	return nt, et, true
}

// foldGranules combines the granule checksums of a size-byte table into
// the CRC32C of each b-byte block, b a multiple of granule, and of the
// whole table.
func foldGranules(gs []uint32, size int64, b int) (blocks []uint32, whole uint32) {
	per := b / granule
	blocks = make([]uint32, 0, (len(gs)+per-1)/per)
	for i, g := range gs {
		n := min(granule, size-int64(i)*granule)
		if i%per == 0 {
			blocks = append(blocks, g)
		} else {
			blocks[len(blocks)-1] = crc32cCombine(blocks[len(blocks)-1], g, n)
		}
		whole = crc32cCombine(whole, g, n)
	}
	return blocks, whole
}

// CRC32C combination, zlib's crc32_combine construction: running a CRC
// register over n zero bytes multiplies it by x^(8n) modulo the
// polynomial P, so crc(A‖B) = crc(A)·x^(8|B|) mod P ⊕ crc(B) — the pre-
// and post-inversions cancel. Polynomials are bit-reflected like the
// table: bit 31 is the coefficient of x^0.

// crc32cCombine returns the CRC32C of A‖B given crc(A), crc(B) and |B|.
func crc32cCombine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB == granule {
		t := &granuleZeros
		return t[0][crcA&0xff] ^ t[1][crcA>>8&0xff] ^ t[2][crcA>>16&0xff] ^ t[3][crcA>>24] ^ crcB
	}
	return mulmodp(xpow8n(lenB), crcA) ^ crcB
}

// granuleZeros multiplies by x^(8·granule) mod P through four byte-indexed
// tables, the product being linear in the register. It is the fold's one
// hot step: through mulmodp's loop, opening rmat17 from its sidecar took
// 11.9 ms, three times the 3.7 ms pass over its tables; through the
// tables, 0.35 ms (2-core x86-64 container, files in the page cache).
var granuleZeros = func() (t [4][256]uint32) {
	x := xpow8n(granule)
	for j := range t {
		for b := range t[j] {
			t[j][b] = mulmodp(x, uint32(b)<<(8*j))
		}
	}
	return t
}()

// mulmodp returns a·b mod P. a must be non-zero, as every power of x is.
func mulmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
}

// x2n[k] is x^(2^k) mod P.
var x2n = func() (t [64]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = mulmodp(p, p)
	}
	return t
}()

// xpow8n returns x^(8n) mod P, the operator of n zero bytes.
func xpow8n(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulmodp(x2n[k], p)
		}
	}
	return p
}
