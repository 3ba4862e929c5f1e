package expr

import (
	"errors"
	"fmt"

	"kcore/internal/gen"
	"kcore/internal/stats"
)

// Fig9Small regenerates Fig. 9 (a), (c), (e): core decomposition on the
// small-graph group, comparing the three semi-external variants against
// EMCore and IMCore on wall-clock time, model memory and block I/O.
func Fig9Small(cfg *Config) error {
	return fig9(cfg, gen.Small, true)
}

// Fig9Big regenerates Fig. 9 (b), (d), (f): the big-graph group, where
// only the semi-external algorithms are feasible (the paper runs nothing
// else at this scale).
func Fig9Big(cfg *Config) error {
	return fig9(cfg, gen.Big, false)
}

func fig9(cfg *Config, group gen.Group, baselines bool) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()
	title := "Fig. 9 (a,c,e): core decomposition, small graphs"
	if group == gen.Big {
		title = "Fig. 9 (b,d,f): core decomposition, big graphs (semi-external only)"
	}
	t := newTable(out, title)
	t.row("dataset", "algorithm", "time", "memory", "read I/O", "write I/O", "iters", "node comps")
	for _, d := range cfg.datasets(group) {
		csr := graphOf(d)
		base, err := materialise(dir, d.Name, csr)
		if err != nil {
			return err
		}
		var recs []record
		for _, v := range []semiVariant{variantStar, variantPlus, variantBasic} {
			r, err := cfg.runSemiDisk(v, base)
			if err != nil {
				return err
			}
			recs = append(recs, r)
		}
		if baselines {
			em, err := cfg.runEMCore(base, dir)
			if err != nil {
				return err
			}
			recs = append(recs, em, runIMCore(csr))
		}
		if err := checkAgreement(recs); err != nil {
			return err
		}
		for _, r := range recs {
			t.row(d.Name, r.Algo, fmtDur(r.Time), stats.FormatBytes(r.MemPeak),
				fmtCount(r.Reads), fmtCount(r.Writes), r.Iterations, fmtCount(r.Comps))
		}
		if err := checkFig9("Fig. 9 "+d.Name, recs); err != nil {
			return err
		}
	}
	t.flush()
	fmt.Fprint(out, "expected shape (checked): SemiCore* <= SemiCore+ <= SemiCore in read I/O and < in node comps; the semi family writes nothing")
	if baselines {
		fmt.Fprint(out, "; EMCore writes, and EMCore and IMCore model more memory than every semi variant")
	}
	fmt.Fprintln(out, ".")
	return nil
}

// checkFig9 holds one dataset's rows to Fig. 9: recs is SemiCore*,
// SemiCore+ and SemiCore, then EMCore and IMCore when the group runs them.
func checkFig9(at string, recs []record) error {
	s, p, b := recs[0], recs[1], recs[2]
	err := errors.Join(
		shape(ascending(false, s.Reads, p.Reads, b.Reads), at, "read I/O SemiCore* <= SemiCore+ <= SemiCore", s.Reads, p.Reads, b.Reads),
		shape(ascending(true, s.Comps, p.Comps, b.Comps), at, "node comps SemiCore* < SemiCore+ < SemiCore", s.Comps, p.Comps, b.Comps),
		shape(s.Writes+p.Writes+b.Writes == 0, at, "no semi-external write I/O", s.Writes, p.Writes, b.Writes))
	if len(recs) == 5 {
		em, im, semiMem := recs[3], recs[4], max(s.MemPeak, p.MemPeak, b.MemPeak)
		err = errors.Join(err,
			shape(em.Writes > 0, at, "EMCore write I/O > 0", em.Writes),
			shape(min(em.MemPeak, im.MemPeak) > semiMem, at, "EMCore and IMCore memory above every semi variant's", em.MemPeak, im.MemPeak, semiMem))
	}
	return err
}
