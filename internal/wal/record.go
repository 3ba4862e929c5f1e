// Package wal is the per-graph durability layer: a segmented
// write-ahead log of applied update batches, checkpoints of the full
// adjacency in the internal/storage blockfile format, and the recovery
// scan that puts them back together on open.
//
// A durable graph lives in one directory:
//
//	<dir>/ckpt/<seq>/        committed checkpoints (graph.meta/.nt/.et,
//	                         optional cores file, MANIFEST) — newest two
//	                         are retained
//	<dir>/wal/s0/            the writer's log, segment files named by the
//	                         LSN of their first record (s1, s2, … exist
//	                         only in directories a sharded kcored wrote;
//	                         recovery merges them by LSN, then sweeps them)
//	<dir>/live/              the mutable working copy the engine serves
//	                         from (rebuilt from a checkpoint on open)
//
// Every applied batch gets a record stamped with a global LSN allocated
// under the graph's single commit point; records are length-prefixed
// and CRC32C-checksummed, so a torn tail is recognized (and logically
// truncated) rather than replayed as garbage. Recovery loads the newest
// checkpoint whose manifest and table checksums verify — falling back
// to the previous one otherwise — then replays the consecutive LSN
// prefix of the surviving log records. Because every acked Sync has
// fsynced all logs (under the always/interval policies), that prefix
// covers at least the last acked Sync.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"kcore/internal/memgraph"
)

// castagnoli is the CRC32C polynomial table used to frame records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// recHeaderSize frames each record: u32 payload length + u32 CRC32C.
	recHeaderSize = 8
	// recMaxPayload bounds a single record; anything larger in a frame
	// header means corruption, not a huge batch.
	recMaxPayload = 1 << 30
	// recTypeBatch is the only record type so far: one applied batch of
	// deletes and inserts.
	recTypeBatch = 1
)

// Record is one applied batch: the exact net deletes and inserts the
// writer applied under LSN order.
type Record struct {
	LSN     uint64
	Deletes []memgraph.Edge
	Inserts []memgraph.Edge
}

// payloadSize reports the encoded payload size for a batch record.
func payloadSize(nDel, nIns int) int {
	return 1 + 8 + 4 + 4 + 8*(nDel+nIns)
}

// AppendRecord appends the framed encoding of a batch record to buf and
// returns the extended slice. Layout (little-endian):
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload = u8 type | u64 lsn | u32 nDel | u32 nIns | (u32 u, u32 v)*
func AppendRecord(buf []byte, lsn uint64, deletes, inserts []memgraph.Edge) []byte {
	plen := payloadSize(len(deletes), len(inserts))
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderSize+plen)...)
	p := buf[start+recHeaderSize:]
	p[0] = recTypeBatch
	binary.LittleEndian.PutUint64(p[1:], lsn)
	binary.LittleEndian.PutUint32(p[9:], uint32(len(deletes)))
	binary.LittleEndian.PutUint32(p[13:], uint32(len(inserts)))
	off := 17
	for _, e := range deletes {
		binary.LittleEndian.PutUint32(p[off:], e.U)
		binary.LittleEndian.PutUint32(p[off+4:], e.V)
		off += 8
	}
	for _, e := range inserts {
		binary.LittleEndian.PutUint32(p[off:], e.U)
		binary.LittleEndian.PutUint32(p[off+4:], e.V)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return buf
}

// decodeRecord parses one framed record at data[off:]. It returns the
// record and the offset just past it. A clean end-of-data is reported
// as done; anything that does not checksum is an error the caller
// classifies (torn tail vs mid-log corruption) by position.
func decodeRecord(data []byte, off int) (rec Record, next int, done bool, err error) {
	if off == len(data) {
		return rec, off, true, nil
	}
	if len(data)-off < recHeaderSize {
		return rec, off, false, fmt.Errorf("wal: truncated frame header at offset %d", off)
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	want := binary.LittleEndian.Uint32(data[off+4:])
	if plen < 17 || plen > recMaxPayload {
		return rec, off, false, fmt.Errorf("wal: implausible payload length %d at offset %d", plen, off)
	}
	if len(data)-off-recHeaderSize < plen {
		return rec, off, false, fmt.Errorf("wal: truncated payload at offset %d (want %d bytes)", off, plen)
	}
	p := data[off+recHeaderSize : off+recHeaderSize+plen]
	if got := crc32.Checksum(p, castagnoli); got != want {
		return rec, off, false, fmt.Errorf("wal: record crc %08x, want %08x at offset %d", got, want, off)
	}
	if p[0] != recTypeBatch {
		return rec, off, false, fmt.Errorf("wal: unknown record type %d at offset %d", p[0], off)
	}
	rec.LSN = binary.LittleEndian.Uint64(p[1:])
	nDel := int(binary.LittleEndian.Uint32(p[9:]))
	nIns := int(binary.LittleEndian.Uint32(p[13:]))
	if payloadSize(nDel, nIns) != plen {
		return rec, off, false, fmt.Errorf("wal: edge counts %d+%d disagree with payload length %d", nDel, nIns, plen)
	}
	edges := make([]memgraph.Edge, nDel+nIns)
	q := 17
	for i := range edges {
		edges[i] = memgraph.Edge{
			U: binary.LittleEndian.Uint32(p[q:]),
			V: binary.LittleEndian.Uint32(p[q+4:]),
		}
		q += 8
	}
	rec.Deletes = edges[:nDel:nDel]
	rec.Inserts = edges[nDel:]
	return rec, off + recHeaderSize + plen, false, nil
}
