package kcore

import (
	"fmt"

	"kcore/internal/emcore"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
)

// Algorithm selects a core decomposition algorithm.
type Algorithm int

const (
	// SemiCoreStar is Algorithm 5 (the paper's best): partial scans with
	// the cnt support counters; every node computation is guaranteed to
	// lower a core number. Memory: ~8n bytes. The default.
	SemiCoreStar Algorithm = iota
	// SemiCorePlus is Algorithm 4: partial scans driven by active flags.
	// Memory: ~5n bytes.
	SemiCorePlus
	// SemiCoreBasic is Algorithm 3: full edge scans each iteration.
	// Memory: ~4n bytes.
	SemiCoreBasic
	// EMCore is the partition-based external-memory baseline of Cheng et
	// al. (Algorithm 2). Memory: unbounded in the worst case.
	EMCore
	// IMCore is the in-memory bin-sort baseline of Batagelj and
	// Zaversnik (Algorithm 1). Memory: Θ(m+n) — the whole graph.
	IMCore
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case SemiCoreStar:
		return "SemiCore*"
	case SemiCorePlus:
		return "SemiCore+"
	case SemiCoreBasic:
		return "SemiCore"
	case EMCore:
		return "EMCore"
	case IMCore:
		return "IMCore"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// DecomposeOptions tunes Decompose. The zero value runs SemiCore*.
type DecomposeOptions struct {
	Algorithm Algorithm
	// EMCoreMemoryArcs caps EMCore's intended in-memory arcs (EMCore
	// only); 0 selects arcs/4.
	EMCoreMemoryArcs int64
	// TempDir holds EMCore partition files; empty uses the OS temp dir.
	TempDir string
}

// Result is a finished core decomposition.
type Result struct {
	// Core maps each node to its core number.
	Core []uint32
	// Kmax is the largest core number (the graph's degeneracy).
	Kmax uint32
	// Info reports the run's cost.
	Info RunInfo

	cnt []int32 // SemiCore* support counters, for maintenance handoff
}

// Decompose computes the core number of every node of g.
func Decompose(g *Graph, opts *DecomposeOptions) (*Result, error) {
	var o DecomposeOptions
	if opts != nil {
		o = *opts
	}
	before := g.IOStats()
	mem := stats.NewMemModel()

	var core []uint32
	var cnt []int32
	var rs stats.RunStats
	switch o.Algorithm {
	case SemiCoreStar, SemiCorePlus, SemiCoreBasic:
		var run func() (*semicore.Result, error)
		sopts := &semicore.Options{Mem: mem}
		switch o.Algorithm {
		case SemiCoreStar:
			run = func() (*semicore.Result, error) { return semicore.SemiCoreStar(g.dyn, sopts) }
		case SemiCorePlus:
			run = func() (*semicore.Result, error) { return semicore.SemiCorePlus(g.dyn, sopts) }
		default:
			run = func() (*semicore.Result, error) { return semicore.SemiCore(g.dyn, sopts) }
		}
		res, err := run()
		if err != nil {
			return nil, err
		}
		core, cnt, rs = res.Core, res.Cnt, res.Stats
	case EMCore:
		res, err := emcore.Decompose(g.dyn, emcore.Options{
			MemoryBudgetArcs: o.EMCoreMemoryArcs,
			TempDir:          o.TempDir,
			IO:               g.ctr,
			Mem:              mem,
		})
		if err != nil {
			return nil, err
		}
		core, rs = res.Core, res.Stats
	case IMCore:
		csr, err := memgraph.FromSource(g.dyn)
		if err != nil {
			return nil, err
		}
		res := imcore.Decompose(csr, mem)
		core, rs = res.Core, res.Stats
	default:
		return nil, fmt.Errorf("kcore: unknown algorithm %v", o.Algorithm)
	}

	out := &Result{Core: core, cnt: cnt}
	for _, c := range core {
		if c > out.Kmax {
			out.Kmax = c
		}
	}
	out.Info = rs
	out.Info.IO = g.IOStats().Sub(before)
	out.Info.MemPeakBytes = mem.Peak()
	return out, nil
}
