package expr

import (
	"errors"
	"fmt"

	"kcore"
)

// record is one (dataset, algorithm) decomposition.
type record struct {
	Algo kcore.Algorithm
	*kcore.Result
}

// semiAlgos are the paper's three semi-external algorithms, in its order.
var semiAlgos = []kcore.Algorithm{kcore.SemiCoreStar, kcore.SemiCorePlus, kcore.SemiCoreBasic}

// open opens the on-disk graph at base at the configured block size, its
// update buffer holding bufferArcs arcs (0: the default).
func (c *Config) open(base string, bufferArcs int) (*kcore.Graph, error) {
	return kcore.Open(base, &kcore.OpenOptions{BlockSize: c.BlockSize, BufferArcs: bufferArcs})
}

// decompose runs algo over the on-disk graph at base on a handle of its
// own, EMCore spilling its partitions under tempDir. The files are read
// once first through a throwaway handle so timed runs compare algorithms,
// not page-cache state (the first algorithm run on a dataset would
// otherwise pay all the cold misses).
func (c *Config) decompose(algo kcore.Algorithm, base, tempDir string) (record, error) {
	w, err := kcore.Open(base, nil)
	if err != nil {
		return record{}, err
	}
	err = errors.Join(w.VisitEdges(func(uint32, uint32) error { return nil }), w.Close())
	if err != nil {
		return record{}, err
	}
	g, err := c.open(base, 0)
	if err != nil {
		return record{}, err
	}
	defer g.Close()
	res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo, TempDir: tempDir})
	return record{algo, res}, err
}

// decomposeAll runs each of algos as decompose does and checks that they
// computed identical cores.
func (c *Config) decomposeAll(base, tempDir string, algos ...kcore.Algorithm) ([]record, error) {
	recs := make([]record, len(algos))
	for i, algo := range algos {
		r, err := c.decompose(algo, base, tempDir)
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	a := recs[0]
	for _, b := range recs[1:] {
		for v := range a.Core {
			if a.Core[v] != b.Core[v] {
				return nil, fmt.Errorf("expr: %s and %s disagree at node %d (%d vs %d)",
					a.Algo, b.Algo, v, a.Core[v], b.Core[v])
			}
		}
	}
	return recs, nil
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
