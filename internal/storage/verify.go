package storage

import "kcore/internal/stats"

// Verify checks the stored graph at base for corruption, reading each
// table once on a counter of its own (nobody's I/O): the header must
// parse, the tables must have the sizes it implies, every node record
// must lie inside the edge table, the lists must tile it, and each
// table's CRC32C must be the header's (when it carries them). The open's
// pass checks all that where no sidecar vouches for the tables (a
// follower's download); otherwise one ScanVerified pass does.
func Verify(base string) error {
	g, err := Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		return err
	}
	defer g.Close()
	if g.idx != nil {
		return nil // the open's pass read both tables and held them to the header
	}
	return g.ScanVerified(g.io, func(uint32, []uint32) error { return nil })
}
