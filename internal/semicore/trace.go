// Package semicore implements the paper's primary contribution: the
// semi-external core decomposition algorithms SemiCore (Algorithm 3),
// SemiCore+ (Algorithm 4) and SemiCore* (Algorithm 5). All three keep
// O(n) node state in memory (intermediate core numbers, plus the active
// bitmap or the cnt counters for the optimised variants) and stream
// adjacency lists from a graph.Source, which may be the block-counted disk
// tables or an in-memory CSR. Passes is the one partial-scan pass engine
// (UpdateRange) under SemiCore+, SemiCore* and internal/maintain's
// SemiInsert and SemiInsert*. Every recompute applies the locality
// equation through Buf.LocalCore, the repository's one h-index, which
// internal/graphio's Build also runs once per list for its core
// estimate.
package semicore

// Trace observes one finished iteration of a decomposition or maintenance
// run: its 1-based index, the ids whose core number was recomputed this
// iteration (the paper's grey cells), and the full core array after the
// iteration. The core slice is live algorithm state; implementations must
// copy what they keep.
type Trace func(iter int, computed []uint32, core []uint32)
