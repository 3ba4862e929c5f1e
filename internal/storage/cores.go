package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"kcore/internal/faultfs"
)

// A core-number file holds one uint32 per node: u32 n, the n values, then
// the CRC32C of everything before it, all little-endian. It is the one
// format for a core-number array at rest: a checkpoint's cores, and a
// saved decomposition (kcore's Result.Save / LoadResult).

// WriteCores writes cores to path through fsys and fsyncs it.
func WriteCores(fsys faultfs.FS, path string, cores []uint32) error {
	buf := make([]byte, 4+4*len(cores)+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(cores)))
	for i, c := range cores {
		binary.LittleEndian.PutUint32(buf[4+4*i:], c)
	}
	crc := crc32.Checksum(buf[:len(buf)-4], castagnoli)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc)
	return WriteFile(fsys, path, buf)
}

// ReadCores loads a core-number file, refusing one whose length or
// checksum does not hold.
func ReadCores(fsys faultfs.FS, path string) ([]uint32, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || len(data) != 8+4*int(binary.LittleEndian.Uint32(data)) {
		return nil, fmt.Errorf("storage: cores file %s is %d bytes, not 8 + 4 per core", path, len(data))
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], castagnoli); got != want {
		return nil, fmt.Errorf("storage: cores file %s crc %d, want %d", path, got, want)
	}
	cores := make([]uint32, len(data)/4-2)
	for i := range cores {
		cores[i] = binary.LittleEndian.Uint32(data[4+4*i:])
	}
	return cores, nil
}

// WriteFile creates path through fsys with data in it and fsyncs it
// before closing: a core-number file, a checkpoint's manifest, a durable
// graph's CONFIG.
func WriteFile(fsys faultfs.FS, path string, data []byte) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
