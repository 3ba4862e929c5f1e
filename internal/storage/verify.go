package storage

import "kcore/internal/stats"

// Verify checks the stored graph at base for corruption: the meta header
// must parse, both tables must have exactly the sizes the header implies
// (Open), and one ScanVerified pass — on a counter of its own, nobody's
// I/O — must find every node record inside the edge table, the lists
// tiling it, and, when the header carries checksums, the CRC32C of each
// table equal to the header's. A truncated, torn, or bit-flipped graph
// fails here instead of being read as garbage.
func Verify(base string) error {
	g, err := Open(base, stats.NewIOCounter(0))
	if err != nil {
		return err
	}
	defer g.Close()
	return g.ScanVerified(g.io, func(uint32, []uint32) error { return nil })
}
