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
// and CRC32C-checksummed frames (one codec, below, for log files and for
// the change stream a leader sends its followers), so a torn tail is
// recognized (and logically truncated) rather than replayed as garbage.
// Recovery serves the newest checkpoint whose manifest validates and
// whose tables its bring-up accepts, falling back to the previous one
// otherwise, then replays the consecutive LSN prefix of the surviving log
// records. Because every acked Sync has fsynced all logs (under the
// always/interval policies), that prefix covers at least the last acked Sync.
//
// The log is also the change stream a replication leader serves: a Tail
// is a cursor over the segments, never past the last finished append,
// and reaches back as far as checkpoint retention keeps segments — there
// is no other copy of the history.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"kcore/internal/graph"
)

// castagnoli is the CRC32C polynomial table used to frame records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// One frame format serves the log files and the change stream a leader
// sends its followers: `u32 payloadLen | u32 crc32c(payload) | payload`,
// little-endian, the payload's first byte selecting the record type.
// Batch frames are what the log stores (one applied net batch stamped
// with its LSN); heartbeat frames exist only on the wire — the leader
// sends one when the stream is idle so followers can observe its LSN
// (for lag) and detect stalls. FrameReader is the one decoder of both.
const (
	// frameHeaderSize is the u32 payload length + u32 CRC32C.
	frameHeaderSize = 8
	// maxPayload bounds a frame's payload. It is far above any real batch
	// (a coalesced flush is at most a few thousand edges) but low enough
	// that a corrupt length field cannot make recovery or a follower
	// allocate gigabytes before the CRC check.
	maxPayload = 1 << 27
	// recTypeBatch tags one applied batch of deletes and inserts.
	recTypeBatch = 1
	// recTypeHeartbeat tags a liveness frame carrying the leader's current
	// LSN and no edges. Heartbeats are never written to a log file.
	recTypeHeartbeat = 2
	// heartbeatPayload is the fixed heartbeat payload: u8 type + u64 lsn.
	heartbeatPayload = 1 + 8
)

// Record is one decoded frame: an applied batch — the exact net deletes
// and inserts the writer applied under LSN order — or, off the wire
// only, a heartbeat carrying nothing but the leader's current LSN.
type Record struct {
	LSN       uint64
	Heartbeat bool
	Deletes   []graph.Edge
	Inserts   []graph.Edge
}

// payloadSize reports the encoded payload size for a batch record.
func payloadSize(nDel, nIns int) int {
	return 1 + 8 + 4 + 4 + 8*(nDel+nIns)
}

// openFrame appends a frame of plen payload bytes to buf with its type,
// LSN and length filled in, and returns the extended slice plus the
// payload window for the caller to finish before sealFrame.
func openFrame(buf []byte, typ byte, lsn uint64, plen int) (out, p []byte) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize+plen)...)
	p = buf[start+frameHeaderSize:]
	p[0] = typ
	binary.LittleEndian.PutUint64(p[1:], lsn)
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	return buf, p
}

// sealFrame checksums the finished payload p, the tail of buf.
func sealFrame(buf, p []byte) []byte {
	binary.LittleEndian.PutUint32(buf[len(buf)-len(p)-4:], crc32.Checksum(p, castagnoli))
	return buf
}

// AppendRecord appends the framed encoding of a batch record to buf and
// returns the extended slice. Payload layout:
//
//	u8 type | u64 lsn | u32 nDel | u32 nIns | (u32 u, u32 v)*
func AppendRecord(buf []byte, lsn uint64, deletes, inserts []graph.Edge) []byte {
	buf, p := openFrame(buf, recTypeBatch, lsn, payloadSize(len(deletes), len(inserts)))
	binary.LittleEndian.PutUint32(p[9:], uint32(len(deletes)))
	binary.LittleEndian.PutUint32(p[13:], uint32(len(inserts)))
	off := 17
	for _, es := range [2][]graph.Edge{deletes, inserts} {
		for _, e := range es {
			binary.LittleEndian.PutUint32(p[off:], e.U)
			binary.LittleEndian.PutUint32(p[off+4:], e.V)
			off += 8
		}
	}
	return sealFrame(buf, p)
}

// AppendHeartbeat appends a framed heartbeat carrying lsn to buf and
// returns the extended slice.
func AppendHeartbeat(buf []byte, lsn uint64) []byte {
	return sealFrame(openFrame(buf, recTypeHeartbeat, lsn, heartbeatPayload))
}

// parsePayload decodes a CRC-verified, non-empty payload.
func parsePayload(p []byte) (Record, error) {
	var r Record
	switch p[0] {
	case recTypeBatch:
		if len(p) < 17 {
			return r, fmt.Errorf("wal: batch payload too short (%d bytes)", len(p))
		}
		r.LSN = binary.LittleEndian.Uint64(p[1:])
		nDel := int(binary.LittleEndian.Uint32(p[9:]))
		nIns := int(binary.LittleEndian.Uint32(p[13:]))
		if payloadSize(nDel, nIns) != len(p) {
			return r, fmt.Errorf("wal: edge counts %d+%d disagree with payload length %d", nDel, nIns, len(p))
		}
		edges := make([]graph.Edge, nDel+nIns)
		q := 17
		for i := range edges {
			edges[i] = graph.Edge{
				U: binary.LittleEndian.Uint32(p[q:]),
				V: binary.LittleEndian.Uint32(p[q+4:]),
			}
			q += 8
		}
		r.Deletes = edges[:nDel:nDel]
		r.Inserts = edges[nDel:]
		return r, nil
	case recTypeHeartbeat:
		if len(p) != heartbeatPayload {
			return r, fmt.Errorf("wal: heartbeat payload length %d, want %d", len(p), heartbeatPayload)
		}
		r.Heartbeat = true
		r.LSN = binary.LittleEndian.Uint64(p[1:])
		return r, nil
	default:
		return r, fmt.Errorf("wal: unknown frame type %d", p[0])
	}
}

// FrameReader incrementally decodes frames from a byte stream: a log
// segment at recovery, an HTTP response body on a follower. It validates
// the length bound before allocating and the CRC before parsing, so
// corrupt or truncated input always surfaces as an error — io.EOF
// exactly at a frame boundary, io.ErrUnexpectedEOF mid-frame — and never
// a panic or a garbage record.
type FrameReader struct {
	r     *bufio.Reader
	hdr   [frameHeaderSize]byte
	buf   []byte
	bytes int64
}

// NewFrameReader wraps r for frame-at-a-time decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// BytesRead reports the total bytes consumed from the underlying stream
// by completed and partial frames.
func (fr *FrameReader) BytesRead() int64 { return fr.bytes }

// ReadFrame decodes the next frame. It returns io.EOF when the stream
// ends cleanly at a frame boundary.
func (fr *FrameReader) ReadFrame() (Record, error) {
	n, err := io.ReadFull(fr.r, fr.hdr[:])
	fr.bytes += int64(n)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("wal: truncated frame header: %w", io.ErrUnexpectedEOF)
		}
		return Record{}, err // io.EOF at a clean boundary
	}
	plen := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	want := binary.LittleEndian.Uint32(fr.hdr[4:])
	if plen < 1 || plen > maxPayload {
		return Record{}, fmt.Errorf("wal: implausible payload length %d", plen)
	}
	if cap(fr.buf) < plen {
		fr.buf = make([]byte, plen)
	}
	p := fr.buf[:plen]
	n, err = io.ReadFull(fr.r, p)
	fr.bytes += int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("wal: truncated payload (%d of %d bytes): %w", n, plen, io.ErrUnexpectedEOF)
		}
		return Record{}, err
	}
	if got := crc32.Checksum(p, castagnoli); got != want {
		return Record{}, fmt.Errorf("wal: frame crc %08x, want %08x", got, want)
	}
	return parsePayload(p)
}
