package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kcore"
)

// paper-batch sizing: maintenance runs in rounds of roundEdges deletes
// followed by the same roundEdges inserts (the paper's Fig. 11-12
// method, on 100 edges at a time); the edge file holds enough edges for
// maxRounds rounds.
const (
	roundEdges    = 100
	maxRounds     = 200
	minDecompReps = 7
)

// batchOut is what the batch child reports on its RESULT line.
type batchOut struct {
	Kmax        uint32    `json:"kmax"`
	Edges       int64     `json:"edges"`
	StartReads  int64     `json:"start_block_reads"` // the decomposition before READY
	DecompS     []float64 `json:"decomp_s"`          // one per Open+Decompose+Close
	DecompReads int64     `json:"decomp_block_reads"`

	DeleteUs []float64 `json:"delete_us"` // one per single-edge delete
	InsertUs []float64 `json:"insert_us"` // one per single-edge insert
	Rounds   int       `json:"rounds"`
	// First round only, so the counts repeat exactly for a seed however
	// many rounds the time allowed.
	Round1DeleteReads int64 `json:"round1_delete_block_reads"`
	Round1InsertReads int64 `json:"round1_insert_block_reads"`
	// All rounds.
	MaintReads  int64   `json:"maint_block_reads"`
	MaintWrites int64   `json:"maint_block_writes"`
	MaintS      float64 `json:"maint_s"`
	MaintCPUS   float64 `json:"maint_cpu_s"`
	// Traced run: operations per second in the untraced and the traced
	// half of the maintenance window.
	UntracedOpsPerS float64 `json:"untraced_ops_per_s"`
	TracedOpsPerS   float64 `json:"traced_ops_per_s"`

	PeakRSSBytes int64  `json:"peak_rss_bytes"`
	RSSBytes     int64  `json:"rss_bytes"`
	Spans        []span `json:"spans,omitempty"`
	StartUnixNs  int64  `json:"start_unix_ns"` // the child tracer's zero
}

// batchChildMain is the re-exec'd child of the paper-batch workload: it
// receives only the built graph files and an edge file, and drives the
// root kcore API on one goroutine. It exists so that peak_rss_mb is the
// algorithms' memory and not the generator's.
func batchChildMain(args []string) error {
	fs := flag.NewFlagSet("batch-child", flag.ContinueOnError)
	graph := fs.String("graph", "", "graph path prefix")
	edgeFile := fs.String("edges", "", "edge file: one \"u v\" per line")
	coresOut := fs.String("cores-out", "", "where to write the final core array")
	decompS := fs.Float64("decomp-seconds", 0, "how long to repeat the decomposition")
	maintS := fs.Float64("maint-seconds", 0, "how long to run maintenance rounds")
	setupOnly := fs.Bool("setup-only", false, "exit once ready")
	traced := fs.Bool("traced", false, "record spans; trace the second half of maintenance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var tr *tracer
	if *traced {
		tr = newTracer()
	}

	// Start-up: what a user pays before the first update can be
	// maintained.
	g, err := kcore.Open(*graph, nil)
	if err != nil {
		return err
	}
	defer g.Close()
	first, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.SemiCoreStar})
	if err != nil {
		return err
	}
	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: first})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "READY")
	if err := out.Flush(); err != nil {
		return err
	}
	if *setupOnly {
		return nil
	}

	res := batchOut{Kmax: first.Kmax, Edges: g.NumEdges(), StartReads: first.Info.IO.Reads}
	if tr != nil {
		res.StartUnixNs = tr.t0.UnixNano()
	}

	// The paper's decomposition experiment, repeated.
	for start := time.Now(); len(res.DecompS) < minDecompReps || time.Since(start).Seconds() < *decompS; {
		t0 := time.Now()
		var r *kcore.Result
		err := tr.call("kcore.Open+Decompose+Close", func() error {
			dg, err := kcore.Open(*graph, nil)
			if err != nil {
				return err
			}
			r, err = kcore.Decompose(dg, &kcore.DecomposeOptions{Algorithm: kcore.SemiCoreStar})
			if cerr := dg.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if err != nil {
			return err
		}
		res.DecompS = append(res.DecompS, time.Since(t0).Seconds())
		res.DecompReads = r.Info.IO.Reads
	}

	// The paper's maintenance experiment, in rounds.
	edges, err := readEdgeFile(*edgeFile)
	if err != nil {
		return err
	}
	io0 := g.IOStats()
	cpu0 := selfCPU()
	start := time.Now()
	var untracedOps, tracedOps int
	var untracedS, tracedS float64
	for len(edges) >= roundEdges && (res.Rounds == 0 || time.Since(start).Seconds() < *maintS) {
		round := edges[:roundEdges]
		edges = edges[roundEdges:]
		// A traced run traces the rounds of the second half.
		rtr := tr
		if time.Since(start).Seconds() < *maintS/2 {
			rtr = nil
		}
		roundStart := time.Now()
		for _, e := range round {
			var info kcore.RunInfo
			t0 := time.Now()
			err := rtr.call("Maintainer.DeleteEdge", func() (err error) { info, err = m.DeleteEdge(e.U, e.V); return })
			if err != nil {
				return fmt.Errorf("delete (%d,%d): %w", e.U, e.V, err)
			}
			res.DeleteUs = append(res.DeleteUs, float64(time.Since(t0))/1e3)
			if res.Rounds == 0 {
				res.Round1DeleteReads += info.IO.Reads
			}
		}
		for _, e := range round {
			var info kcore.RunInfo
			t0 := time.Now()
			err := rtr.call("Maintainer.InsertEdge", func() (err error) { info, err = m.InsertEdge(e.U, e.V); return })
			if err != nil {
				return fmt.Errorf("insert (%d,%d): %w", e.U, e.V, err)
			}
			res.InsertUs = append(res.InsertUs, float64(time.Since(t0))/1e3)
			if res.Rounds == 0 {
				res.Round1InsertReads += info.IO.Reads
			}
		}
		roundS := time.Since(roundStart).Seconds()
		if rtr == nil {
			untracedOps += 2 * roundEdges
			untracedS += roundS
		} else {
			tracedOps += 2 * roundEdges
			tracedS += roundS
		}
		res.Rounds++
	}
	res.MaintS = time.Since(start).Seconds()
	res.MaintCPUS = (selfCPU() - cpu0).Seconds()
	io := g.IOStats().Sub(io0)
	res.MaintReads, res.MaintWrites = io.Reads, io.Writes
	res.UntracedOpsPerS = ratio(float64(untracedOps), untracedS)
	res.TracedOpsPerS = ratio(float64(tracedOps), tracedS)

	// Every deleted edge is back, so the maintained cores must be the
	// base graph's; the parent compares them with the oracle.
	if err := writeCores(*coresOut, m.Cores()); err != nil {
		return err
	}
	u, err := readUsage(os.Getpid())
	if err != nil {
		return err
	}
	res.PeakRSSBytes, res.RSSBytes = u.peakRSSBytes, u.rssBytes
	if tr != nil {
		res.Spans = tr.spans
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "RESULT %s\n", b)
	return out.Flush()
}

func writeEdgeFile(path string, edges []kcore.Edge) error {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func readEdgeFile(path string) ([]kcore.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []kcore.Edge
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e kcore.Edge
		if _, err := fmt.Sscan(sc.Text(), &e.U, &e.V); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

func writeCores(path string, core []uint32) error {
	b := make([]byte, 4*len(core))
	for i, c := range core {
		binary.LittleEndian.PutUint32(b[4*i:], c)
	}
	return os.WriteFile(path, b, 0o644)
}

func readCores(path string) ([]uint32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// startBatchChild re-executes this binary as the batch child and waits
// for its READY line.
func startBatchChild(args ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// One goroutine does all the work; GOMAXPROCS=2 leaves the second
	// core to the collector, as in kcored.
	c, err := startChild(append([]string{self, "-batch-child"}, args...), "GOMAXPROCS=2")
	if err != nil {
		return nil, err
	}
	if _, err := c.waitLine(readyDeadline, func(l string) bool { return l == "READY" }); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// runBatch runs the paper-batch workload: the paper's own experiments
// through the root kcore API, in a child process.
func (c *runCtx) runBatch(spec *benchSpec) (*runResult, error) {
	res := &runResult{Workload: "paper-batch", Seed: c.seed, Traced: c.tr != nil, Correct: true, Metrics: make(metrics)}
	dir, err := c.dir("batch")
	if err != nil {
		return nil, err
	}
	graph := filepath.Join(dir, "g")
	edgeFile := filepath.Join(dir, "edges.txt")
	coresFile := filepath.Join(dir, "cores.bin")

	// The maintenance edges: seeded, distinct, drawn from the base.
	r := rand.New(rand.NewSource(c.seed + 1))
	sample := make([]kcore.Edge, 0, roundEdges*maxRounds)
	for _, i := range r.Perm(len(c.fx.base))[:min(cap(sample), len(c.fx.base))] {
		sample = append(sample, c.fx.base[i])
	}
	if err := writeEdgeFile(edgeFile, sample); err != nil {
		return nil, err
	}
	stream := make([]update, len(sample))
	for i, e := range sample {
		stream[i] = update{Op: "delete", U: e.U, V: e.V}
	}
	res.Hashes.Stream = hashStream(stream)

	seconds := c.seconds
	reps := setupReps
	if c.tr != nil {
		seconds /= 3
		reps = 1
	}
	childArgs := []string{"-graph", graph, "-edges", edgeFile, "-cores-out", coresFile,
		"-decomp-seconds", fmt.Sprint(0.35 * seconds), "-maint-seconds", fmt.Sprint(0.65 * seconds)}
	if c.tr != nil {
		childArgs = append(childArgs, "-traced")
	}

	// Set-up, several times: build, then child start until it holds a
	// ready Maintainer. The last child goes on to the measured work.
	var setups []float64
	var buildS, readyS float64
	var ch *child
	for i := range reps {
		for _, ext := range graphFiles {
			os.Remove(graph + ext) //nolint:errcheck // absent on the first repetition
		}
		t0 := time.Now()
		err := c.tr.call("kcore.Build", func() error { return c.fx.build(graph, c.fx.raw) })
		if err != nil {
			return nil, err
		}
		buildS = time.Since(t0).Seconds()
		args := childArgs
		if i < reps-1 {
			args = append(args[:len(args):len(args)], "-setup-only")
		}
		t1 := time.Now()
		ch, err = startBatchChild(args...)
		if err != nil {
			return nil, err
		}
		readyS = time.Since(t1).Seconds()
		setups = append(setups, buildS+readyS)
		if i < reps-1 && !ch.drain(stopDeadline) {
			ch.kill()
			return nil, errors.New("batch child did not exit after set-up")
		}
	}
	defer ch.kill()
	res.Metrics.set("setup_s", median(setups), "s", len(setups))
	if res.Hashes.Fixture, err = hashGraphFiles(graph); err != nil {
		return nil, err
	}

	self0 := selfCPU()
	steal0 := hostSteal()
	windowStart := time.Now()
	rss := ch.sampleRSS()
	line, err := ch.waitLine(time.Duration(seconds+90)*time.Second, func(l string) bool { return strings.HasPrefix(l, "RESULT ") })
	if err != nil {
		return nil, err
	}
	window := time.Since(windowStart)
	rssMB := rss.stop()
	stolen := stealShare(steal0, window)
	self1 := selfCPU()
	if !ch.drain(stopDeadline) {
		return nil, errors.New("batch child did not exit")
	}
	if ch.err != nil {
		return nil, fmt.Errorf("batch child: %w: %s", ch.err, ch.stderr.String())
	}
	var out batchOut
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "RESULT ")), &out); err != nil {
		return nil, fmt.Errorf("batch child result: %w", err)
	}

	// Oracle: the full maintained core array against the in-memory
	// algorithm on an independent build of the base edge list.
	res.Attempted = int64(len(out.DecompS) + len(out.DeleteUs) + len(out.InsertUs))
	res.check(out.Edges == int64(len(c.fx.base)), "graph has %d edges, fixture %d", out.Edges, len(c.fx.base))
	got, err := readCores(coresFile)
	if err != nil {
		return nil, err
	}
	want, err := c.oracleCores(c.fx.base)
	if err != nil {
		return nil, err
	}
	res.check(len(got) == len(want), "core array has %d nodes, oracle %d", len(got), len(want))
	for v := 0; v < min(len(got), len(want)); v++ {
		res.check(got[v] == want[v], "core[%d] is %d, oracle %d", v, got[v], want[v])
	}
	res.check(out.Kmax == kcore.Degeneracy(want), "kmax %d, oracle %d", out.Kmax, kcore.Degeneracy(want))

	decompMs := make([]float64, len(out.DecompS))
	for i, s := range out.DecompS {
		decompMs[i] = s * 1e3
	}
	ops := len(out.DeleteUs) + len(out.InsertUs)
	opMs := make([]float64, 0, ops)
	for _, us := range out.DeleteUs {
		opMs = append(opMs, us/1e3)
	}
	insertMs := make([]float64, len(out.InsertUs))
	for i, us := range out.InsertUs {
		insertMs[i] = us / 1e3
	}
	opMs = append(opMs, insertMs...)
	m := res.Metrics
	m.set("peak_rss_mb", float64(out.PeakRSSBytes)/(1<<20), "MB", 0)
	m.set("rss_mb", median(rssMB), "MB", len(rssMB))
	m.set("start_block_reads", float64(out.StartReads), "count", 0)
	// Timings and the per-update counts: informational (see report.go).
	m.set("decompose_s", median(out.DecompS), "s", len(out.DecompS))
	m.set("decompose_block_reads", float64(out.DecompReads), "count", 0)
	m.set("insert_us", mean(out.InsertUs), "us", len(out.InsertUs))
	m.set("delete_us", mean(out.DeleteUs), "us", len(out.DeleteUs))
	m.set("maintain_block_reads_per_update",
		ratio(float64(out.Round1DeleteReads+out.Round1InsertReads), 2*roundEdges), "count", 2*roundEdges)
	m.set("update_throughput", ratio(float64(ops), out.MaintS), "1/s", ops)
	m.set("block_reads_per_update", ratio(float64(out.MaintReads), float64(ops)), "count", ops)
	res.note("the hypervisor stole %.1f%% of the machine's CPU time during the measured window", 100*stolen)
	if c.tr == nil {
		return res, nil
	}

	c.tr.merge(out.Spans, time.Unix(0, out.StartUnixNs).Sub(c.tr.t0))
	// The timings again under their per-layer names: a "read" is one
	// decomposition, an "update" one single-edge maintenance operation.
	m["e2e.throughput"] = m["update_throughput"]
	m.set("e2e.read_p50_ms", median(decompMs), "ms", len(decompMs))
	m.set("e2e.update_p50_ms", median(opMs), "ms", ops)
	m.set("e2e.update_mean_ms", mean(opMs), "ms", ops)
	m["e2e.block_reads_per_update"] = m["block_reads_per_update"]
	readTail, readPct := tailMs(decompMs)
	updTail, updPct := tailMs(insertMs)
	m.set("loadgen.read_tail_ms", readTail, "ms", len(decompMs))
	m.set("loadgen.read_tail_pctile", readPct, "%", 0)
	m.set("loadgen.update_tail_ms", updTail, "ms", len(insertMs))
	m.set("loadgen.update_tail_pctile", updPct, "%", 0)
	m.set("loadgen.late_p99_ms", 0, "ms", 0) // nothing is paced here
	m.set("loadgen.cpu_share", ratio((self1-self0).Seconds(), window.Seconds()*float64(numCPU())), "share", 0)
	m.set("loadgen.host_steal_share", stolen, "share", 0)
	m.set("trace.overhead_pct", 100*ratio(out.UntracedOpsPerS-out.TracedOpsPerS, out.UntracedOpsPerS), "%", 0)
	m.set("storage.block_reads_per_update", ratio(float64(out.MaintReads), float64(ops)), "count", ops)
	m.set("storage.block_writes_per_update", ratio(float64(out.MaintWrites), float64(ops)), "count", ops)
	m.set("graphio.build_s", buildS, "s", 0)
	m.set("kcored.ready_s", readyS, "s", 0)
	m.set("kcored.cpu_s_per_kupdate", ratio(out.MaintCPUS, float64(ops)/1000), "s", ops)
	m.set("kcored.bytes_per_edge", ratio(float64(out.RSSBytes), float64(out.Edges)), "B", 0)
	// No server runs here: the serving layers do no work.
	res.zeroBypassed(spec, "serve.", "diskengine.", "wal.", "storage.cache_")
	return res, nil
}

// zeroBypassed sets to 0 every per-layer metric of the given modules
// that this workload's traffic never reaches. Metrics the probes fill
// afterwards overwrite the zeros.
func (r *runResult) zeroBypassed(spec *benchSpec, prefixes ...string) {
	for _, s := range spec.PerLayer {
		if _, set := r.Metrics[s.Name]; set {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				r.Metrics.set(s.Name, 0, s.Unit, 0)
				break
			}
		}
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
