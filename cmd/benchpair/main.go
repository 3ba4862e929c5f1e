// Command benchpair times one package's benchmarks at a parent revision
// against the working tree, in pairs: it exports the revision with git
// archive into a temporary directory, builds a `go test -c` binary of the
// package in each tree, runs the two alternately, n times each (the
// first of a pair alternating too), and prints for every benchmark and
// unit the medians and quartiles of both, how many pairs the working
// tree won, and a verdict: better or worse only when the working tree
// wins, or loses, at least nine pairs and nine in ten, and the medians
// differ by more than the parent's interquartile spread; unresolved
// otherwise, as every row of fewer than nine pairs is.
// Lower wins, except for a unit per second (MB/s), where higher does. It
// is `make pair`'s engine.
//
// Usage:
//
//	benchpair -parent HEAD~1 -pkg ./internal/storage -bench 'ListDecode' [-n 10] [-benchtime 1x]
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		parent    = flag.String("parent", "HEAD", "the revision to time the working tree against")
		pkg       = flag.String("pkg", "", "the package whose benchmarks run, as a path from the module root (required)")
		bench     = flag.String("bench", "", "the -test.bench regexp (required)")
		n         = flag.Int("n", 10, "pairs of runs")
		benchtime = flag.String("benchtime", "1x", "the -test.benchtime of each run")
	)
	flag.Parse()
	if *pkg == "" || *bench == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *pkg, *bench, *benchtime, *n); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// tree is one side of the comparison: a test binary and the package
// directory it runs in, as go test runs it.
type tree struct {
	name, bin, dir string
	runs           []map[string]float64 // per run, "benchmark unit" → value
}

func run(parent, pkg, bench, benchtime string, n int) error {
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src := filepath.Join(tmp, "parent")
	if err := os.Mkdir(src, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", parent)
	untar := exec.Command("tar", "-x", "-C", src)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return err
	}
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", parent, err)
	}
	if err := untar.Wait(); err != nil {
		return err
	}
	sides := []*tree{
		{name: parent, bin: filepath.Join(tmp, "parent.test"), dir: filepath.Join(src, pkg)},
		{name: "working tree", bin: filepath.Join(tmp, "change.test"), dir: pkg},
	}
	for i, root := range []string{src, "."} {
		build := exec.Command("go", "test", "-c", "-o", sides[i].bin, "./"+filepath.Clean(pkg))
		build.Dir, build.Stdout, build.Stderr = root, os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", sides[i].name, err)
		}
	}
	for i := range n {
		for j := range sides {
			s := sides[(i+j)%2] // the first of a pair alternates
			out, err := s.run(bench, benchtime)
			if err != nil {
				return err
			}
			s.runs = append(s.runs, out)
		}
	}
	report(os.Stdout, sides[0], sides[1], n)
	return nil
}

// run runs the binary once and parses its benchmark lines.
func (t *tree) run(bench, benchtime string) (map[string]float64, error) {
	cmd := exec.Command(t.bin, "-test.run", "^$", "-test.bench", bench, "-test.benchtime", benchtime, "-test.benchmem", "-test.timeout", "30m")
	cmd.Dir, cmd.Stderr = t.dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s: %w", t.name, err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for k := 2; k+1 < len(f); k += 2 {
			if v, err := strconv.ParseFloat(f[k], 64); err == nil {
				got[f[0]+" "+f[k+1]] = v
			}
		}
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("%s: no benchmark matched %q", t.name, bench)
	}
	return got, nil
}

// report prints one line per benchmark and unit either side measured. A
// row only one side measured gives that side's median and quartiles and
// the verdict n/a.
func report(w io.Writer, parent, change *tree, n int) {
	var keys []string
	for _, t := range []*tree{parent, change} {
		for k := range t.runs[0] {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	fmt.Fprintf(w, "%d pairs; median [q1, q3] of %s, then of the working tree\n", n, parent.name)
	for _, k := range keys {
		p, c := parent.values(k, n), change.values(k, n)
		if p == nil || c == nil {
			fmt.Fprintf(w, "%-60s %s  %s  %7s  %9s  n/a\n", k, summary(p), summary(c), "n/a", "")
			continue
		}
		higher := strings.HasSuffix(k, "/s")
		wins, losses := 0, 0
		for i := range n {
			switch {
			case c[i] == p[i]:
			case (c[i] > p[i]) == higher:
				wins++
			default:
				losses++
			}
		}
		pm, cm := quantile(p, .5), quantile(c, .5)
		p1, p3 := quantile(p, .25), quantile(p, .75)
		gain := pm - cm
		if higher {
			gain = -gain
		}
		verdict, lead := "better", wins
		if gain < 0 {
			verdict, lead = "worse", losses
		}
		if lead < 9 || 10*lead < 9*n || math.Abs(gain) <= p3-p1 {
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-60s %s  %s  %7s  won %d/%d  %s\n",
			k, summary(p), summary(c), relative(pm, cm), wins, n, verdict)
	}
}

// values is the first n runs' values of key k, nil if the tree's binary
// does not report it.
func (t *tree) values(k string, n int) []float64 {
	if _, ok := t.runs[0][k]; !ok {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = t.runs[i][k]
	}
	return xs
}

// summary formats the median and quartiles of xs, or a dash for none.
func summary(xs []float64) string {
	if xs == nil {
		return fmt.Sprintf("%12s %22s", "-", "")
	}
	return fmt.Sprintf("%12.4g %-22s", quantile(xs, .5), fmt.Sprintf("[%.4g, %.4g]", quantile(xs, .25), quantile(xs, .75)))
}

// relative is the change from the parent's median pm to cm: none
// when both are 0, n/a when only pm is.
func relative(pm, cm float64) string {
	switch {
	case pm == 0 && cm == 0:
		return "+0.0%"
	case pm == 0:
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cm-pm)/pm)
}

// quantile is the q-quantile of xs, linearly interpolated.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
