package storage

import (
	"fmt"
	"hash/crc32"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// castagnoli is the CRC32C polynomial table used for table checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockWriter appends to a file through a buffer of one or FlushBlocks
// blocks of B bytes, flushed with one system call and charged one write
// I/O per block. Close flushes the final partial block.
// Every flushed block is checksummed one of two ways. A graph table's
// writer (keepGranules) keeps the CRC32C of the whole stream, which the
// header stores (ntcrc, etcrc), and of every granule of it, the checksum
// sidecar's contents. Every other writer — sort runs, EMCore partitions
// — keeps the CRC32C of each block, for a BlockCache to read the file
// back against (BlockCRCs); it flushes whole blocks only until Close, so
// its blocks are the file's.
type BlockWriter struct {
	f    faultfs.File
	b    int
	io   *stats.IOCounter
	buf  []byte
	fill int

	keepGranules bool
	crc          uint32   // the whole stream's, with granules
	granules     []uint32 // finished granules' CRC32Cs
	gcrc         uint32   // the granule being written
	gfill        int
	blocks       []uint32 // flushed blocks' CRC32Cs, without granules
}

// FlushBlocks is how many blocks a sort run's or a partition's writer
// buffers, and a run reader (extsort) reads, per system call.
const FlushBlocks = 16

// CreateBlockWriter creates (truncates) path for counted writing on the
// real filesystem, FlushBlocks blocks per system call: a sort run or an
// EMCore partition, written once and read back whole.
func CreateBlockWriter(path string, ctr *stats.IOCounter) (*BlockWriter, error) {
	return createBlockWriter(faultfs.OS, path, ctr, FlushBlocks)
}

// CreateBlockWriterFS creates (truncates) path for counted writing
// through the given filesystem, so durability code can route table
// writes through a fault injector. It writes a block per system call:
// a graph's files are written by checkpoints and fold-backs beside the
// graph they serve, and the crash sweeps inject a fault at every write.
func CreateBlockWriterFS(fsys faultfs.FS, path string, ctr *stats.IOCounter) (*BlockWriter, error) {
	return createBlockWriter(fsys, path, ctr, 1)
}

func createBlockWriter(fsys faultfs.FS, path string, ctr *stats.IOCounter, blocks int) (*BlockWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	return &BlockWriter{
		f:   f,
		b:   ctr.BlockSize(),
		io:  ctr,
		buf: make([]byte, blocks*ctr.BlockSize()),
	}, nil
}

// BlockCRCs reports the CRC32C of every block flushed so far: after
// Close, one per block of the file, what BlockCache.Open holds a reader
// of it to. An empty file's is empty, not nil: Open still holds the
// file to a count of zero blocks.
func (bw *BlockWriter) BlockCRCs() []uint32 {
	if bw.blocks == nil {
		return []uint32{}
	}
	return bw.blocks
}

// granuleCRCs reports the CRC32C of every granule flushed so far, the
// last one short if the stream does not end on a granule boundary.
func (bw *BlockWriter) granuleCRCs() []uint32 {
	if bw.gfill > 0 {
		return append(bw.granules, bw.gcrc)
	}
	return bw.granules
}

// Write appends p, flushing the buffer's blocks once they are full.
func (bw *BlockWriter) Write(p []byte) (int, error) {
	total := len(p)
	bw.io.AddWriteBytes(int64(total))
	for len(p) > 0 {
		n := copy(bw.buf[bw.fill:], p)
		bw.fill += n
		p = p[n:]
		if bw.fill == len(bw.buf) {
			if err := bw.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// flush writes the buffered bytes and checksums them: a buffer at a
// time, because the tables arrive as records of a byte or two and short
// lists, and a CRC call per Write costs more than the CRC itself.
func (bw *BlockWriter) flush() error {
	if bw.fill == 0 {
		return nil
	}
	data := bw.buf[:bw.fill]
	if !bw.keepGranules {
		for q := data; len(q) > 0; q = q[min(bw.b, len(q)):] {
			bw.blocks = append(bw.blocks, crc32.Checksum(q[:min(bw.b, len(q))], castagnoli))
		}
	} else {
		bw.crc = crc32.Update(bw.crc, castagnoli, data)
		for q := data; len(q) > 0; {
			n := min(len(q), granule-bw.gfill)
			bw.gcrc = crc32.Update(bw.gcrc, castagnoli, q[:n])
			bw.gfill += n
			q = q[n:]
			if bw.gfill == granule {
				bw.granules = append(bw.granules, bw.gcrc)
				bw.gcrc, bw.gfill = 0, 0
			}
		}
	}
	n, err := bw.f.Write(data)
	if err != nil {
		return err
	}
	if n != bw.fill {
		return fmt.Errorf("storage: short block write: wrote %d of %d bytes to %s", n, bw.fill, bw.f.Name())
	}
	bw.io.AddWriteBlocks(int64((bw.fill + bw.b - 1) / bw.b))
	bw.fill = 0
	return nil
}

// Sync flushes buffered bytes and fsyncs the file, making everything
// written so far durable.
func (bw *BlockWriter) Sync() error {
	if err := bw.flush(); err != nil {
		return err
	}
	return bw.f.Sync()
}

// Close flushes buffered bytes and closes the file.
func (bw *BlockWriter) Close() error {
	if err := bw.flush(); err != nil {
		bw.f.Close()
		return err
	}
	return bw.f.Close()
}
