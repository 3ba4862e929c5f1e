// Command bench is the repository's benchmark: the paper's batch jobs
// through the root kcore API and a real kcored process over HTTP, every
// answer checked against a recompute oracle, every layer measured from
// outside. BENCHMARK.json at the checkout root names its workloads and
// metrics; README.md in this directory explains them.
//
// The driver runs one workload per invocation:
//
//	go run -C bench . --workload serve-write-disk --seed 3 --seconds 15 --trace 0
//
// and reads the last line of standard output, one JSON object. Without
// --workload the command runs every workload (with -trace 1 a traced
// repetition of each as well), prints every metric by name and unit and
// writes bench/out/result.json; -repeat N makes N such sets and prints
// each end-to-end metric's run-to-run spread; -compare a.json b.json
// compares two result files against the bounds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-batch-child" {
		if err := batchChildMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench: batch child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// traceFile is where traced runs write their spans, under bench/out.
const traceFile = "trace.jsonl"

// errFailed reports a run whose outputs were wrong or whose requests
// failed; the result has been printed already.
var errFailed = errors.New("failed_share is not 0")

func run() error {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's JSON line (default: all workloads)")
		seed     = flag.Int64("seed", 1, "seed of the traffic: update stream, paced schedule, read targets, maintenance edges")
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: trace (the driver gets the per-layer metrics; a full invocation repeats every workload traced at one-third length)")
		repeat   = flag.Int("repeat", 1, "full invocation: how many sets of runs to make; prints the run-to-run spread")
		cmp      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		out      = flag.String("o", "", "result file of a full invocation (default bench/out/result.json)")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *cmp {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two result files")
		}
		a, err := readResultFile(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResultFile(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, spec, a, b) {
			return errors.New("a metric regressed past its bound, or an exact count differs")
		}
		return nil
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload != "" && !slices.Contains(spec.workloadNames(), *workload) {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(spec.workloadNames(), ", "))
	}

	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	// Traced runs of this invocation append their spans to one file.
	if err := os.RemoveAll(filepath.Join(outDir, traceFile)); err != nil {
		return err
	}
	bin, err := buildKcored(root, filepath.Join(outDir, "bin"))
	if err != nil {
		return err
	}
	env := envInfo(root, *seed, int(*seconds))
	printEnv(os.Stdout, env)
	base := runCtx{tmp: tmp, kcored: bin, fx: newFixture(fixtureScale), probes: fullProbes, seed: *seed, seconds: *seconds}

	if *workload != "" {
		res, err := base.runWorkload(spec, *workload, *trace == 1, outDir)
		if err != nil {
			return err
		}
		res.print(os.Stdout, spec)
		line, err := res.driverLine(spec)
		if err != nil {
			return err
		}
		fmt.Println(line)
		if res.Failed > 0 || !res.Correct {
			return errFailed
		}
		return nil
	}

	rf := &resultFile{Env: env}
	failed := false
	for range *repeat {
		for _, traced := range []bool{false, true}[:1+*trace] { // -trace 1: every workload again, traced
			for _, name := range spec.workloadNames() {
				res, err := base.runWorkload(spec, name, traced, outDir)
				if err != nil {
					return err
				}
				res.print(os.Stdout, spec)
				rf.Runs = append(rf.Runs, res)
				failed = failed || res.Failed > 0 || !res.Correct
			}
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, spec, rf)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	if err := writeResultFile(path, rf); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed {
		return errFailed
	}
	return nil
}

// runWorkload runs one workload once. A traced run also runs the layer
// probes and writes the spans to out/trace.jsonl.
func (c runCtx) runWorkload(spec *benchSpec, name string, traced bool, outDir string) (*runResult, error) {
	if traced {
		c.tr = newTracer()
	}
	var res *runResult
	var err error
	if name == "paper-batch" {
		res, err = c.runBatch(spec)
	} else {
		i := slices.IndexFunc(serveWorkloads, func(w serveWorkload) bool { return w.name == name })
		if i < 0 {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which this program does not have", name)
		}
		res, err = c.runServe(&serveWorkloads[i])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !traced {
		return res, nil
	}
	if err := c.runProbes(res); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", name, err)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	path := filepath.Join(outDir, traceFile)
	if err := c.tr.appendJSONL(path, name); err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	for _, st := range c.tr.selfTimes() {
		res.note("span %-34s count %7d  self %10.3f ms  mean self %10.2f us",
			st.Name, st.Count, float64(st.SelfNs)/1e6, float64(st.SelfNs)/float64(st.Count)/1e3)
	}
	return res, nil
}

func numCPU() int { return runtime.NumCPU() }

func goVersion() string { return runtime.Version() }

// gitCommit is the checkout's HEAD, or "unknown" outside a git checkout
// (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
