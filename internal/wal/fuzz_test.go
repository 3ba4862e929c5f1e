package wal

import (
	"bytes"
	"io"
	"testing"
)

// reencode renders a decoded record with the encoder that produced it.
func reencode(r Record) []byte {
	if r.Heartbeat {
		return AppendHeartbeat(nil, r.LSN)
	}
	return AppendRecord(nil, r.LSN, r.Deletes, r.Inserts)
}

// FuzzChangeStreamDecode throws arbitrary bytes at the frame decoder —
// the one recovery reads log segments with and a follower reads the
// change stream with. The invariants: never panic, never allocate
// unboundedly, every error says something, and every successfully
// decoded record re-encodes to exactly the bytes that were consumed for
// it (the format round-trips). The checked-in corpus was produced by the
// AppendRecord/AppendHeartbeat of the commit before the codecs were
// merged, so it also pins the format byte for byte.
func FuzzChangeStreamDecode(f *testing.F) {
	// Seed with well-formed streams: a batch, a heartbeat, both, and
	// mutations of them (truncated, bit-flipped CRC, oversized length).
	batch := AppendRecord(nil, 7, edges(1, 2), edges(3, 4, 5, 6))
	hb := AppendHeartbeat(nil, 42)
	f.Add(batch)
	f.Add(hb)
	f.Add(append(append([]byte(nil), batch...), hb...))
	f.Add(batch[:len(batch)-3])
	flipped := append([]byte(nil), batch...)
	flipped[5] ^= 0x40 // crc byte
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // implausible length
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var consumed int64
		for {
			rec, err := fr.ReadFrame()
			if err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatalf("error with empty message at offset %d", consumed)
				}
				if err == io.EOF && fr.BytesRead() != int64(len(data)) {
					t.Fatalf("clean end of stream reported %d bytes before the input's end", int64(len(data))-fr.BytesRead())
				}
				break
			}
			enc := reencode(rec)
			start := consumed
			consumed = fr.BytesRead()
			if !bytes.Equal(enc, data[start:consumed]) {
				t.Fatalf("record re-encodes to %d bytes that differ from the %d consumed at offset %d", len(enc), consumed-start, start)
			}
		}
	})
}
