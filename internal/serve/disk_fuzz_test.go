package serve_test

import (
	"testing"

	"kcore/internal/serve"
	"kcore/internal/testutil"
)

// FuzzDiskEngineAgreesWithMem feeds an arbitrary byte-encoded mutation
// stream, under an arbitrary (tiny) cache budget, to the disk engine and
// the in-memory oracle in lockstep, requiring bit-identical published
// cores after every applied batch. The decoder deliberately maps some
// bytes to invalid updates (self-loops, out-of-range ids, duplicate
// inserts, absent deletes) so rejection behaviour is fuzzed too; the
// cache budget byte reaches down to a single frame, so eviction-order
// bugs and overlay/merge bugs are both in scope.
func FuzzDiskEngineAgreesWithMem(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x01, 0x02, 0x03, 0x80, 0x04, 0x05})
	f.Add(int64(7), uint8(3), []byte("\x00\x01\x02\x00\x01\x02\x81\x01\x02"))
	f.Add(int64(42), uint8(11), []byte{0x80, 0x30, 0x30, 0x00, 0xff, 0x01, 0x01, 0x09, 0x09})
	f.Fuzz(func(t *testing.T, seed int64, cacheRaw uint8, muts []byte) {
		const n = 48
		base, _ := testutil.WriteSocial(t, n, seed%512)

		eng := openEngine(t, base, 1+int(cacheRaw)%12, 256, 32, nil)
		oracle := memOracle(t, n, seed%512)

		// Decode 3 bytes per update: op bit, then endpoints over a range
		// slightly wider than the node-id space so out-of-range ids occur.
		const maxOps = 256
		for i := 0; i+3 <= len(muts) && i < 3*maxOps; i += 3 {
			op := serve.OpInsert
			if muts[i]&0x80 != 0 {
				op = serve.OpDelete
			}
			up := serve.Update{
				Op: op,
				U:  uint32(muts[i+1]) % (n + 8),
				V:  uint32(muts[i+2]) % (n + 8),
			}
			if err := eng.Apply(up); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Apply(up); err != nil {
				t.Fatal(err)
			}
			got, want := eng.Snapshot(), oracle.Snapshot()
			if got.NumEdges != want.NumEdges {
				t.Fatalf("op %d: edges %d vs oracle %d", i/3, got.NumEdges, want.NumEdges)
			}
			compareCores(t, got.Cores(), want.Cores(), "after op")
		}
	})
}
