// Package expr contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section VI) on the
// synthetic dataset analogues: Table I, Fig. 3 (convergence decay),
// Fig. 9 (decomposition time/memory/IO), Fig. 10 (maintenance), Fig. 11
// and Fig. 12 (scalability), and the worked-example traces of Figs. 2-8.
// cmd/experiments is a thin CLI over this package. Each exhibit checks
// the paper's shape on the exact counts it prints (block I/O, node
// computations, model memory; never wall time) and fails when it does
// not hold.
package expr

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"text/tabwriter"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Config parameterises an experiment run.
type Config struct {
	// Out receives the rendered tables.
	Out io.Writer
	// WorkDir holds the materialised on-disk graphs; empty creates a
	// temporary directory per call.
	WorkDir string
	// BlockSize is the accounting block size B (0: 4096).
	BlockSize int
	// Quick trims dataset lists and sweep sizes so the whole suite runs
	// in seconds (used by tests and smoke runs).
	Quick bool
	// MaintenanceEdges is the number of random edges deleted and
	// re-inserted by the maintenance experiments (0: paper's 100;
	// Quick: 20).
	MaintenanceEdges int
}

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c *Config) maintenanceEdges() int {
	if c.MaintenanceEdges > 0 {
		return c.MaintenanceEdges
	}
	if c.Quick {
		return 20
	}
	return 100
}

// workDir resolves the graph cache directory, creating it if needed.
func (c *Config) workDir() (string, func(), error) {
	if c.WorkDir != "" {
		if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
			return "", nil, err
		}
		return c.WorkDir, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "kcore-expr")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// datasets returns the experiment datasets of one group, trimmed in Quick
// mode.
func (c *Config) datasets(g gen.Group) []gen.Dataset {
	ds := gen.ByGroup(g)
	if c.Quick {
		ds = ds[:2]
	}
	return ds
}

// graphs memoises each dataset's graph for the process: generating one
// costs more than most exhibits' runs, and several exhibits share each.
var graphs sync.Map

// graphOf returns d's graph, generated on first use; callers only read it.
func graphOf(d gen.Dataset) *memgraph.CSR {
	g, ok := graphs.Load(d.Name)
	if !ok {
		g, _ = graphs.LoadOrStore(d.Name, d.Graph())
	}
	return g.(*memgraph.CSR)
}

// materialise writes g to disk under name, unless an earlier run already
// did (every graph is generated from a fixed seed), and returns the base
// path.
func materialise(dir, name string, g *memgraph.CSR) (string, error) {
	base := filepath.Join(dir, name)
	if _, err := os.Stat(base + ".meta"); err == nil {
		return base, nil
	}
	return base, storage.WriteGraph(faultfs.OS, base, g, stats.NewIOCounter(0), false)
}

// table is a tiny fixed-width renderer.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, title string) *table {
	fmt.Fprintf(out, "\n== %s ==\n", title)
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// fmtDur renders a duration compactly for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtCount renders large counts with K/M/G suffixes like the paper's axes.
func fmtCount(x int64) string {
	switch {
	case x >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(x)/1e9)
	case x >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(x)/1e6)
	case x >= 1_000:
		return fmt.Sprintf("%.1fK", float64(x)/1e3)
	default:
		return fmt.Sprintf("%d", x)
	}
}

// pickEdges selects k distinct random edges of g, deterministically.
func pickEdges(g *memgraph.CSR, k int, seed int64) []graph.Edge {
	all := g.EdgeList()
	if k > len(all) {
		k = len(all)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]graph.Edge, 0, k)
	for _, i := range r.Perm(len(all))[:k] {
		out = append(out, all[i])
	}
	return out
}
