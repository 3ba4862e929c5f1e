package semicore

import "kcore/internal/graph"

// SemiCoreStarPaperRule runs SemiCore* with Algorithm 5's recompute rule
// as printed, neighbours' stored estimates only: the tests measure the
// violation lookahead against it.
func SemiCoreStarPaperRule(g graph.Source, opts *Options) (*Result, error) {
	return semiCoreStar(g, opts, true, nil)
}

// TestGraphs is the differential-testing corpus, for the external tests.
var TestGraphs = testGraphs
