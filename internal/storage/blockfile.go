package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"kcore/internal/faultfs"
	"kcore/internal/stats"
)

// castagnoli is the CRC32C polynomial table used for table checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockFile reads a disk file through a single in-memory block buffer of
// size B, charging one read I/O to the attached counter each time a block
// not currently buffered is fetched. This models the minimal one-block
// read buffer of the external-memory model: a sequential scan of F bytes
// costs ceil(F/B) I/Os, repeated small reads inside one block cost one,
// and a skip scan is charged only for the blocks it actually touches. It
// is the sequential reader of sort runs and EMCore partition files; the
// graph tables are read through CachedFile.
type BlockFile struct {
	f       *os.File
	size    int64
	b       int64
	io      *stats.IOCounter
	buf     []byte
	blockID int64 // id of the buffered block, -1 if none
	bufLen  int   // valid bytes in buf (short for the final block)
}

// OpenBlockFile opens path for counted reading. The counter's block size
// determines B.
func OpenBlockFile(path string, ctr *stats.IOCounter) (*BlockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	b := int64(ctr.BlockSize())
	return &BlockFile{
		f:       f,
		size:    fi.Size(),
		b:       b,
		io:      ctr,
		buf:     make([]byte, b),
		blockID: -1,
	}, nil
}

// Size reports the file size in bytes.
func (bf *BlockFile) Size() int64 { return bf.size }

// Close closes the underlying file.
func (bf *BlockFile) Close() error { return bf.f.Close() }

// loadBlock fetches block id into the buffer, charging one read I/O.
func (bf *BlockFile) loadBlock(id int64) error {
	off := id * bf.b
	if off >= bf.size {
		return fmt.Errorf("storage: block %d beyond EOF (size %d)", id, bf.size)
	}
	want := bf.b
	if off+want > bf.size {
		want = bf.size - off
	}
	n, err := bf.f.ReadAt(bf.buf[:want], off)
	if err != nil && err != io.EOF {
		return err
	}
	if int64(n) != want {
		return fmt.Errorf("storage: short block read: got %d want %d at off %d", n, want, off)
	}
	bf.blockID = id
	bf.bufLen = n
	bf.io.AddReadBlocks(1)
	return nil
}

// ReadAt fills p with the bytes at offset off, fetching blocks as needed.
func (bf *BlockFile) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > bf.size {
		return fmt.Errorf("storage: read [%d,%d) outside file of size %d", off, off+int64(len(p)), bf.size)
	}
	bf.io.AddReadBytes(int64(len(p)))
	for len(p) > 0 {
		id := off / bf.b
		if id != bf.blockID {
			if err := bf.loadBlock(id); err != nil {
				return err
			}
		}
		start := off - id*bf.b
		n := copy(p, bf.buf[start:bf.bufLen])
		if n == 0 {
			return fmt.Errorf("storage: zero-length copy at off %d", off)
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// BlockWriter appends to a file through a B-sized buffer, charging one
// write I/O per flushed block. Close flushes the final partial block.
// The writer keeps a running CRC32C of the logical byte stream so
// callers can store a checksum alongside the file and detect torn or
// bit-flipped tables at open (see Verify), and, for the graph tables,
// the CRC32C of every granule of it (the checksum sidecar's contents).
type BlockWriter struct {
	f    faultfs.File
	b    int
	io   *stats.IOCounter
	buf  []byte
	fill int
	crc  uint32

	keepGranules bool
	granules     []uint32 // finished granules' CRC32Cs
	gcrc         uint32   // the granule being written
	gfill        int
}

// CreateBlockWriter creates (truncates) path for counted writing on the
// real filesystem.
func CreateBlockWriter(path string, ctr *stats.IOCounter) (*BlockWriter, error) {
	return CreateBlockWriterFS(faultfs.OS, path, ctr)
}

// CreateBlockWriterFS creates (truncates) path for counted writing
// through the given filesystem, so durability code can route table
// writes through a fault injector.
func CreateBlockWriterFS(fsys faultfs.FS, path string, ctr *stats.IOCounter) (*BlockWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	return &BlockWriter{
		f:   f,
		b:   ctr.BlockSize(),
		io:  ctr,
		buf: make([]byte, ctr.BlockSize()),
	}, nil
}

// CRC reports the CRC32C of every byte flushed so far: after Sync or
// Close, of the whole stream.
func (bw *BlockWriter) CRC() uint32 { return bw.crc }

// granuleCRCs reports the CRC32C of every granule flushed so far, the
// last one short if the stream does not end on a granule boundary.
func (bw *BlockWriter) granuleCRCs() []uint32 {
	if bw.gfill > 0 {
		return append(bw.granules, bw.gcrc)
	}
	return bw.granules
}

// Write appends p, flushing full blocks as they fill.
func (bw *BlockWriter) Write(p []byte) (int, error) {
	total := len(p)
	bw.io.AddWriteBytes(int64(total))
	for len(p) > 0 {
		n := copy(bw.buf[bw.fill:], p)
		bw.fill += n
		p = p[n:]
		if bw.fill == bw.b {
			if err := bw.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// flush writes the buffered bytes and checksums them: a block at a time,
// because the tables arrive as 12-byte records and short lists, and a
// CRC call per Write costs more than the CRC itself.
func (bw *BlockWriter) flush() error {
	if bw.fill == 0 {
		return nil
	}
	blk := bw.buf[:bw.fill]
	bw.crc = crc32.Update(bw.crc, castagnoli, blk)
	for q := blk; bw.keepGranules && len(q) > 0; {
		n := min(len(q), granule-bw.gfill)
		bw.gcrc = crc32.Update(bw.gcrc, castagnoli, q[:n])
		bw.gfill += n
		q = q[n:]
		if bw.gfill == granule {
			bw.granules = append(bw.granules, bw.gcrc)
			bw.gcrc, bw.gfill = 0, 0
		}
	}
	n, err := bw.f.Write(blk)
	if err != nil {
		return err
	}
	if n != bw.fill {
		return fmt.Errorf("storage: short block write: wrote %d of %d bytes to %s", n, bw.fill, bw.f.Name())
	}
	bw.io.AddWriteBlocks(1)
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
