package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
)

// testScale is the tiny fixture of the self-test: 2k nodes.
const testScale = 11

// testRoot and testKcored are the checkout root and the kcored binary
// TestMain built into a temporary directory.
var testRoot, testKcored string

func TestMain(m *testing.M) {
	// The paper-batch workload re-executes this binary as its child.
	if len(os.Args) > 1 && os.Args[1] == "-batch-child" {
		if err := batchChildMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		if testRoot, err = findRoot(); err == nil {
			testKcored, err = buildKcored(testRoot, dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func TestDeterministicInputs(t *testing.T) {
	m := mix{updateShare: 0.8, updateBatch: 32}
	hashes := func(seed int64) [3]string {
		fx := newFixture(testScale)
		base := filepath.Join(t.TempDir(), "g")
		if err := fx.build(base, fx.raw); err != nil {
			t.Fatal(err)
		}
		h, err := hashGraphFiles(base)
		if err != nil {
			t.Fatal(err)
		}
		return [3]string{h, hashStream(fx.makeStream(seed+1, 4096)), hashSchedule(makeSchedule(seed+2, m, 500, time.Second))}
	}
	a, b, other := hashes(1), hashes(1), hashes(2)
	for i, what := range []string{"fixture", "update stream", "paced schedule"} {
		if a[i] != b[i] {
			t.Errorf("%s differs between two generations from seed 1", what)
		}
		// The graph is the same for every seed; the traffic is not.
		if (a[i] == other[i]) != (what == "fixture") {
			t.Errorf("%s: seed 1 and seed 2 agree: %v", what, a[i] == other[i])
		}
	}
}

func TestStreamIsValidInAnyOrder(t *testing.T) {
	fx := newFixture(testScale)
	stream := fx.makeStream(4, 2000)
	seen := make(map[[2]uint32]bool)
	for i, u := range stream {
		wantOp := []string{"delete", "insert"}[i%2]
		if u.Op != wantOp {
			t.Fatalf("update %d is %s, want strict alternation", i, u.Op)
		}
		key := [2]uint32{min(u.U, u.V), max(u.U, u.V)}
		if seen[key] {
			t.Fatalf("update %d touches edge %v a second time", i, key)
		}
		seen[key] = true
		inBase := fx.hasBase(kcore.Edge{U: key[0], V: key[1]})
		if inBase != (u.Op == "delete") {
			t.Fatalf("update %d: %s of an edge with base membership %v", i, u.Op, inBase)
		}
	}
	if got, want := len(fx.finalEdges(stream, len(stream))), len(fx.base); got != want {
		t.Errorf("|E| after the stream is %d, want %d", got, want)
	}
}

// The open-loop generator must time a request from when it was due, so
// that a stall charges every request that had to wait behind it.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first request on each of the generator's connections
		// stalls, so nothing can be sent meanwhile.
		if served.Add(1) <= loadWorkers {
			time.Sleep(stall)
		}
		fmt.Fprintln(w, "{}")
	}))
	defer srv.Close()

	var schedule []arrival
	for i := range 40 {
		schedule = append(schedule, arrival{due: time.Duration(i) * 5 * time.Millisecond, kind: opCore})
	}
	p := openLoop(&target{url: srv.URL, n: 1, kmax: 1}, schedule)
	if p.failed != 0 || len(p.reads) != len(schedule) {
		t.Fatalf("%d failed, %d of %d completed", p.failed, len(p.reads), len(schedule))
	}
	// All 40 were due within 200ms, and none could finish before the
	// stall ended: every latency counted from the due time is >100ms. A
	// generator that timed from the send would report that for two.
	for i, e := range p.reads {
		if e.latency < stall-200*time.Millisecond {
			t.Errorf("request %d: latency %v does not include its wait behind the stall", i, e.latency)
		}
	}
	if late := quantile(p.late, 0.5); late < 50 {
		t.Errorf("median lateness %.1fms: the generator did not report how late it ran", late)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestStatsDelta(t *testing.T) {
	before, err := parseStats([]byte(`{"serve":{"applied":10,"rejected":0,"epoch_age_ns":5},"backend":"disk","degraded":false,
		"disk":{"cache_hits":100,"cache_misses":50,"overlay_arcs":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStats([]byte(`{"serve":{"applied":74,"rejected":0,"epoch_age_ns":9},"backend":"disk","degraded":false,
		"disk":{"cache_hits":160,"cache_misses":70,"overlay_arcs":3},"io":{"Reads":12,"Writes":4},"hist":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	for key, want := range map[string]float64{
		"serve.applied": 64, "serve.rejected": 0, "disk.cache_hits": 60, "disk.cache_misses": 20,
		"disk.overlay_arcs": -4, "io.Reads": 12, "io.Writes": 4, "degraded": 0,
	} {
		if got, ok := d[key]; !ok || got != want {
			t.Errorf("delta[%q] = %g (present %v), want %g", key, got, ok, want)
		}
	}
	if _, ok := d["backend"]; ok {
		t.Error("a string leaf was kept")
	}
	if _, err := parseStats([]byte("not json")); err == nil {
		t.Error("garbage parsed")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, 1, "request", at(0), at(10))
	rt := tr.add(root, 1, "http_roundtrip", at(2), at(10))
	tr.add(rt, 1, "ttfb", at(3), at(9))
	rows := tr.selfTimes()
	for name, wantUs := range map[string]float64{"request": 2000, "http_roundtrip": 2000, "ttfb": 6000} {
		if got := meanSelfUs(rows, name); got != wantUs {
			t.Errorf("self time of %s = %gus, want %g", name, got, wantUs)
		}
	}
}

func pidAlive(pid int) bool {
	_, err := os.Stat(fmt.Sprintf("/proc/%d", pid))
	return err == nil
}

func liveChildren() int {
	children.mu.Lock()
	defer children.mu.Unlock()
	return len(children.live)
}

// A child that fails or hangs must be killed and reaped before the
// harness moves on: port 0 plus banner parse, a deadline on every wait.
func TestChildCleanup(t *testing.T) {
	bin := testKcored
	fx := newFixture(testScale)
	graph := filepath.Join(t.TempDir(), "g")
	if err := fx.build(graph, fx.raw); err != nil {
		t.Fatal(err)
	}

	srv, err := startKcored(bin, "-graph", graph)
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	if u, err := srv.usage(); err != nil || u.peakRSSBytes == 0 {
		t.Errorf("usage = %+v, %v", u, err)
	}
	srv.kill()
	if pidAlive(pid) {
		t.Errorf("kcored %d still alive after stop", pid)
	}

	if _, err := startKcored(bin, "-graph", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("kcored on a missing graph reported ready")
	}

	// A program that never prints the banner runs into the deadline.
	hang := filepath.Join(t.TempDir(), "hang.sh")
	if err := os.WriteFile(hang, []byte("#!/bin/sh\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := readyDeadline
	readyDeadline = 200 * time.Millisecond
	defer func() { readyDeadline = old }()
	start := time.Now()
	if _, err := startKcored(hang); err == nil {
		t.Error("a silent child reported ready")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("giving up on a silent child took %v", d)
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d children still tracked", n)
	}
}

// tinyProbes keeps the traced tiny run's probes to a second or two.
var tinyProbes = probeSizes{
	maintEdges: 5, applyCalls: 4, apply1Calls: 5, reads: 1000,
	httpReads: 50, httpUpdates: 10, recUpdates: 5, flood: 200 * time.Millisecond,
	lagSamples: 5, catchup: 10,
}

// Tiny runs of the batch workload and of two serve workloads: every
// answer passes the oracle, every metric BENCHMARK.json lists comes out
// with its unit (the end-to-end ones untraced, the per-layer ones from
// the traced run, which also exercises every probe and writes its
// spans), and nothing is left behind. The write flood gets a graph four
// times the size so that its stream, which is at most as long as the
// base edge list, lasts.
func TestTinyRuns(t *testing.T) {
	spec, err := loadSpec(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	c := runCtx{tmp: tmp, kcored: testKcored, fx: newFixture(testScale), probes: tinyProbes, seed: 5, seconds: 1}
	for _, run := range []struct {
		name   string
		traced bool
	}{{"paper-batch", false}, {"serve-read-mem", false}, {"serve-write-disk", true}} {
		if run.name == "serve-write-disk" {
			c.fx = newFixture(testScale + 2)
		}
		res, err := c.runWorkload(spec, run.name, run.traced, tmp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: %d of %d failed: %v", run.name, res.Failed, res.Attempted, res.Notes)
		}
		if _, err := res.driverLine(spec); err != nil {
			t.Error(err)
		}
		if run.traced { // a traced run measures the end-to-end metrics too
			res.Traced = false
			if _, err := res.driverLine(spec); err != nil {
				t.Error(err)
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(tmp, traceFile)); err != nil || fi.Size() == 0 {
		t.Errorf("the traced run wrote no spans: %v", err)
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d children still tracked", n)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		switch e.Name() {
		case "serve", "batch", traceFile: // the run's own scratch and output, removed with tmp
		default:
			t.Errorf("left behind: %s", e.Name())
		}
	}
}

// -compare must flag a median past its bound, refuse to judge a metric
// whose spread is wider than the bound, and treat an exact count that
// differs at the same seed as a regression whatever the spread.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "read_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	// file makes five runs at seeds 1-5; each metric reads base scaled by
	// 1 + step*(seed-3).
	file := func(throughput, readMs, step, reads float64) *resultFile {
		rf := &resultFile{}
		for seed := int64(1); seed <= 5; seed++ {
			f := 1 + step*float64(seed-3)
			m := make(metrics)
			m.set("throughput", throughput*f, "1/s", 100)
			m.set("read_ms", readMs*f, "ms", 100)
			m.set("decompose_block_reads", reads, "count", 0)
			rf.Runs = append(rf.Runs, &runResult{Workload: "w", Seed: seed, Metrics: m})
		}
		return rf
	}
	base := file(1000, 2, 0.01, 500)
	for _, c := range []struct {
		name      string
		b         *resultFile
		regressed bool
		want      string
	}{
		{"same", file(1000, 2, 0.01, 500), false, "within"},
		{"better", file(1300, 1.5, 0.01, 500), false, "within"},
		{"slower", file(850, 2, 0.01, 500), true, "regressed"},
		{"later", file(1000, 2.3, 0.01, 500), true, "regressed"},
		{"noisy", file(850, 2, 0.1, 500), false, "unresolved"},
		{"count", file(1000, 2, 0.01, 501), true, "exact count differs"},
	} {
		var out strings.Builder
		if got := compare(&out, spec, base, c.b); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q row\n%s", c.name, c.want, out.String())
		}
	}
}

func TestSpecNamesWorkloads(t *testing.T) {
	spec, err := loadSpec(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper-batch"}
	for _, w := range serveWorkloads {
		want = append(want, w.name)
	}
	got := spec.workloadNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	if n := len(spec.EndToEnd); n == 0 || spec.EndToEnd[0].Name != "setup_s" {
		t.Errorf("end_to_end must start with setup_s (have %d entries)", n)
	}
}
