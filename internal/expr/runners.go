package expr

import (
	"fmt"
	"time"

	"kcore/internal/emcore"
	"kcore/internal/graph"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// record is one (dataset, algorithm) measurement row.
type record struct {
	Algo       string
	Time       time.Duration
	MemPeak    int64
	Reads      int64
	Writes     int64
	Iterations int
	Comps      int64
	Core       []uint32
	PerIter    []int64
}

// semiVariant names one of the three decomposition algorithms.
type semiVariant int

const (
	variantStar semiVariant = iota
	variantPlus
	variantBasic
)

func (v semiVariant) String() string {
	switch v {
	case variantStar:
		return "SemiCore*"
	case variantPlus:
		return "SemiCore+"
	default:
		return "SemiCore"
	}
}

// warmFiles pre-reads the graph files through a throwaway counter so
// timed runs compare algorithms, not page-cache state (the first
// algorithm run on a dataset would otherwise pay all the cold misses).
func warmFiles(base string) error {
	g, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		return err
	}
	defer g.Close()
	return graph.ScanAll(g, func(uint32, []uint32) error { return nil })
}

// runSemiDisk runs one semi-external variant over the on-disk graph at
// base with fresh counters.
func (c *Config) runSemiDisk(variant semiVariant, base string) (record, error) {
	if err := warmFiles(base); err != nil {
		return record{}, err
	}
	ctr := c.newCounter()
	g, err := storage.Open(base, ctr, nil)
	if err != nil {
		return record{}, err
	}
	defer g.Close()
	mem := stats.NewMemModel()
	opts := &semicore.Options{Mem: mem}
	var res *semicore.Result
	switch variant {
	case variantStar:
		res, err = semicore.SemiCoreStar(g, opts)
	case variantPlus:
		res, err = semicore.SemiCorePlus(g, opts)
	default:
		res, err = semicore.SemiCore(g, opts)
	}
	if err != nil {
		return record{}, err
	}
	io := ctr.Snapshot()
	return record{
		Algo:       variant.String(),
		Time:       res.Stats.Duration,
		MemPeak:    res.Stats.MemPeakBytes,
		Reads:      io.Reads,
		Writes:     io.Writes,
		Iterations: res.Stats.Iterations,
		Comps:      res.Stats.NodeComputations,
		Core:       res.Core,
		PerIter:    res.Stats.UpdatedPerIter,
	}, nil
}

// runEMCore runs the partition baseline over the on-disk graph at base.
func (c *Config) runEMCore(base, tempDir string) (record, error) {
	if err := warmFiles(base); err != nil {
		return record{}, err
	}
	ctr := c.newCounter()
	g, err := storage.Open(base, ctr, nil)
	if err != nil {
		return record{}, err
	}
	defer g.Close()
	mem := stats.NewMemModel()
	res, err := emcore.Decompose(g, emcore.Options{TempDir: tempDir, IO: ctr, Mem: mem})
	if err != nil {
		return record{}, err
	}
	io := ctr.Snapshot()
	return record{
		Algo:       "EMCore",
		Time:       res.Stats.Duration,
		MemPeak:    res.Stats.MemPeakBytes,
		Reads:      io.Reads,
		Writes:     io.Writes,
		Iterations: res.Rounds,
		Comps:      res.Stats.NodeComputations,
		Core:       res.Core,
	}, nil
}

// runIMCore runs the in-memory baseline on an already-loaded CSR. Its
// model memory includes the whole graph; it performs no counted I/O
// (matching the paper, whose Fig. 9e/9f omit IMCore).
func runIMCore(csr *memgraph.CSR) record {
	mem := stats.NewMemModel()
	res := imcore.Decompose(csr, mem)
	return record{
		Algo:       "IMCore",
		Time:       res.Stats.Duration,
		MemPeak:    res.Stats.MemPeakBytes,
		Iterations: res.Stats.Iterations,
		Comps:      res.Stats.NodeComputations,
		Core:       res.Core,
	}
}

// checkAgreement cross-checks that all records computed identical cores.
func checkAgreement(recs []record) error {
	for i := 1; i < len(recs); i++ {
		a, b := recs[0], recs[i]
		if len(a.Core) != len(b.Core) {
			return fmt.Errorf("expr: %s and %s disagree on n", a.Algo, b.Algo)
		}
		for v := range a.Core {
			if a.Core[v] != b.Core[v] {
				return fmt.Errorf("expr: %s and %s disagree at node %d (%d vs %d)",
					a.Algo, b.Algo, v, a.Core[v], b.Core[v])
			}
		}
	}
	return nil
}

// shape is one of the paper's claims checked on an exhibit's counts: nil
// when ok, else an error quoting the claim and the counts that broke it.
func shape(ok bool, at, claim string, got ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("expr: %s: want %s, got %v", at, claim, got)
}

// ascending reports whether vs rises along the paper's order of the
// algorithms that produced them, strictly if strict.
func ascending[T int64 | float64](strict bool, vs ...T) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i] < vs[i-1] || strict && vs[i] == vs[i-1] {
			return false
		}
	}
	return true
}
