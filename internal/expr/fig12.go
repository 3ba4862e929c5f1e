package expr

import (
	"fmt"

	"kcore/internal/gen"
)

// Fig12 regenerates Fig. 12: maintenance scalability. Over the same
// node/edge sampling sweeps as Fig. 11, it deletes and re-inserts the
// Fig. 10 random-edge workload and reports the average update time of
// SemiInsert, SemiInsert* and SemiDelete*.
func Fig12(cfg *Config) error {
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return err
	}
	defer cleanup()
	out := cfg.out()
	for _, name := range cfg.scaleDatasets() {
		d, err := gen.ByName(name)
		if err != nil {
			return err
		}
		full := graphOf(d)
		for _, mode := range []string{"V", "E"} {
			t := newTable(out, fmt.Sprintf("Fig. 12: vary |%s| (%s), avg update time", mode, name))
			t.row("fraction", "SemiInsert", "SemiInsert*", "SemiDelete*")
			for _, frac := range cfg.scaleFractions() {
				sub, err := sampleGraph(full, mode, frac)
				if err != nil {
					return err
				}
				at := fmt.Sprintf("%s-%s-%02.0f", name, mode, frac*100)
				base, err := materialise(dir, at, sub)
				if err != nil {
					return err
				}
				edges := pickEdges(sub, cfg.maintenanceEdges(), 1200)
				recs, err := cfg.maintenanceRun(base, edges)
				if err != nil {
					return err
				}
				t.row(fmt.Sprintf("%.0f%%", frac*100),
					fmtDur(recs[0].AvgTime), fmtDur(recs[1].AvgTime), fmtDur(recs[2].AvgTime))
				if err := checkMaintenance("Fig. 12 "+at, recs, len(edges)); err != nil {
					return err
				}
			}
			t.flush()
		}
	}
	fmt.Fprintln(out, maintenanceShape)
	return nil
}
