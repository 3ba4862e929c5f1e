package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"kcore"
)

// streamLen is how many updates a run generates up front. It bounds
// what a run can apply; a sender that finds the stream empty fails.
const streamLen = 1 << 19

// oracleSamples is how many nodes' core numbers are read back over
// HTTP and compared after a serve workload.
const oracleSamples = 2000

// setupReps is how often an untraced run sets up before it measures;
// setup_s is the median.
const setupReps = 3

// serveWorkload is one serve workload: how kcored is started, what
// traffic it gets, and the frozen rate of its paced phase. The rates
// are about a quarter of the capacity measured at the commit that added
// the benchmark (about 10,000, 110 and 95 requests per second), and are
// never derived at run time. A quarter and not half: the single writer
// makes the server one queue, and at half its capacity the median
// latency was mostly queueing and moved 40% from run to run.
type serveWorkload struct {
	name string
	// args are kcored's flags after -graph; "{data}" stands for a fresh
	// data directory of the run.
	args      []string
	mix       mix
	pacedRate float64 // requests per second
	// prefillTo is how many updates of the stream the server has applied
	// when the measured window begins; the warm-up is extended, unmeasured,
	// to get there. 0: no such extension.
	prefillTo int
}

// writeMix is the traffic of the two write workloads; the shard probe
// floods with it too.
var writeMix = mix{updateShare: 0.80, updateBatch: 32}

// writeDisk is the semi-external serving configuration; the recovery
// probe starts its server the same way.
//
// The disk engine buffers updates in an overlay and merges it into the
// partition files once it holds more than 65,536 arcs, two per update.
// A run applies 15,000 to 20,000 updates, so left alone it would never
// merge. The extended warm-up leaves the overlay 2,048 updates short of
// its limit: every run, the short traced one too, merges early in its
// window, and the run fails if it did not.
var writeDisk = serveWorkload{
	name:      "serve-write-disk",
	args:      []string{"-backend", "disk", "-cache-blocks", "512", "-data-dir", "{data}", "-fsync", "interval"},
	mix:       writeMix,
	pacedRate: 25,
	prefillTo: 65536/2 - 2048,
}

// prefillBatch is how many updates a request of the extended warm-up
// carries: as many as the server coalesces into one batch.
const prefillBatch = 256

var serveWorkloads = []serveWorkload{
	{name: "serve-read-mem", mix: mix{updateShare: 0.05, updateBatch: 1}, pacedRate: 2500},
	{name: "serve-write-mem", mix: writeMix, pacedRate: 25},
	writeDisk,
}

func (w *serveWorkload) argv(graph, dataDir string) []string {
	out := []string{"-graph", graph}
	for _, a := range w.args {
		out = append(out, strings.ReplaceAll(a, "{data}", dataDir))
	}
	return out
}

// runCtx is what every workload of one invocation shares.
type runCtx struct {
	tmp     string // scratch directory of this invocation, removed at exit
	kcored  string // built binary
	seed    int64
	seconds float64
	fx      *fixture
	probes  probeSizes
	tr      *tracer // nil when untraced
}

// dir creates a fresh subdirectory of the run's scratch space.
func (c *runCtx) dir(name string) (string, error) {
	d := filepath.Join(c.tmp, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// phaseSplit divides the measured seconds of a serve workload: a
// discarded warm-up of a second (a fifth of a run shorter than five
// seconds, which only the self-test makes), the closed-loop capacity
// phase, the open-loop paced phase. A traced run measures a third as
// long.
func (c *runCtx) phaseSplit() (warm, capacity, paced time.Duration) {
	s := c.seconds
	if c.tr != nil {
		s /= 3
	}
	warmS := min(1, s/5)
	rest := max(s-warmS, 1)
	warm = time.Duration(warmS * float64(time.Second))
	capacity = time.Duration(0.35 * rest * float64(time.Second))
	paced = time.Duration(0.65 * rest * float64(time.Second))
	return warm, capacity, paced
}

// setupServer builds the fixture into a fresh directory and starts
// kcored on it, returning the server and how long build and start took.
func (c *runCtx) setupServer(w *serveWorkload, name string) (srv *server, buildS float64, err error) {
	dir, err := c.dir(name)
	if err != nil {
		return nil, 0, err
	}
	graph := filepath.Join(dir, "g")
	t0 := time.Now()
	err = c.tr.call("kcore.Build", func() error { return c.fx.build(graph, c.fx.raw) })
	if err != nil {
		return nil, 0, err
	}
	buildS = time.Since(t0).Seconds()
	srv, err = startKcored(c.kcored, w.argv(graph, filepath.Join(dir, "data"))...)
	return srv, buildS, err
}

// runServe runs one serve workload end to end.
func (c *runCtx) runServe(w *serveWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: c.seed, Traced: c.tr != nil, Correct: true, Metrics: make(metrics)}

	// Set-up, several times; the last server stays up for the run.
	reps := setupReps
	if c.tr != nil {
		reps = 1
	}
	var srv *server
	var setups []float64
	var buildS float64
	for i := range reps {
		if srv != nil {
			srv.kill()
		}
		var err error
		srv, buildS, err = c.setupServer(w, "serve")
		if err != nil {
			return nil, err
		}
		setups = append(setups, buildS+srv.readyS)
		if i == 0 {
			h, err := hashGraphFiles(filepath.Join(c.tmp, "serve", "g"))
			if err != nil {
				srv.kill()
				return nil, err
			}
			res.Hashes.Fixture = h
		}
	}
	defer srv.kill()
	res.Metrics.set("setup_s", median(setups), "s", len(setups))

	// What start-up cost before any request: its peak memory, and the
	// block reads of the initial decomposition.
	usageReady, err := srv.usage()
	if err != nil {
		return nil, err
	}
	ready, err := fetchStats(srv.url)
	if err != nil {
		return nil, err
	}
	var deg degeneracyReply
	if err := getJSON(srv.url+"/degeneracy", &deg); err != nil {
		return nil, err
	}
	res.check(deg.Edges == int64(len(c.fx.base)), "server loaded %d edges, fixture has %d", deg.Edges, len(c.fx.base))

	stream := c.fx.makeStream(c.seed+1, streamLen)
	res.Hashes.Stream = hashStream(stream)
	tgt := &target{url: srv.url, n: c.fx.n, kmax: deg.Degeneracy, batch: w.mix.updateBatch, cursor: &streamCursor{stream: stream}}
	warmDur, capDur, pacedDur := c.phaseSplit()
	schedule := makeSchedule(c.seed+2, w.mix, w.pacedRate, pacedDur)
	res.Hashes.Schedule = hashSchedule(schedule)

	warm := closedLoop(tgt, w.mix, c.seed+3, warmDur)
	if w.prefillTo > 0 {
		fill := prefill(tgt, w.prefillTo)
		res.note("extended warm-up: %d updates applied in %.1f s before the window", tgt.cursor.taken(), fill.wall.Seconds())
		warm.merge(fill)
	}

	before, err := fetchStats(srv.url)
	if err != nil {
		return nil, err
	}
	usage0, err := srv.usage()
	if err != nil {
		return nil, err
	}
	// The warm-up is discarded, its memory too: peak_rss_mb is the higher
	// of start-up's peak and the measured window's.
	if err := srv.resetPeakRSS(); err != nil {
		res.note("peak_rss_mb includes the warm-up: %v", err)
	}
	self0 := selfCPU()
	steal0 := hostSteal()
	windowStart := time.Now()
	rss := srv.sampleRSS()
	var poll *statsPoller
	if c.tr != nil {
		poll = startStatsPoller(srv.url)
	}

	// Capacity: closed loop. A traced run sends the first half untraced
	// and the second half traced; the throughput difference is the
	// tracing overhead.
	var capacity, tracedCap *phase
	if c.tr == nil {
		capacity = closedLoop(tgt, w.mix, c.seed+4, capDur)
	} else {
		capacity = closedLoop(tgt, w.mix, c.seed+4, capDur/2)
		tgt.tr = c.tr
		tracedCap = closedLoop(tgt, w.mix, c.seed+5, capDur/2)
	}
	// Paced: open loop at the frozen rate.
	paced := openLoop(tgt, schedule)

	window := time.Since(windowStart)
	rssMB := rss.stop()
	stolen := stealShare(steal0, window)
	var polled polledMax
	if poll != nil {
		polled = poll.stop()
	}
	self1 := selfCPU()
	after, err := fetchStats(srv.url)
	if err != nil {
		return nil, err
	}
	usage1, err := srv.usage()
	if err != nil {
		return nil, err
	}

	for _, p := range []*phase{warm, capacity, tracedCap, paced} {
		if p != nil {
			res.Attempted += int64(p.attempted)
			res.Failed += int64(p.failed)
		}
	}
	delta := after.sub(before)
	res.check(delta["serve.rejected"] == 0, "server rejected %g updates", delta["serve.rejected"])
	if w.prefillTo > 0 {
		hits, misses := delta["disk.cache_hits"], delta["disk.cache_misses"]
		res.check(delta["disk.merges"] >= 1, "the overlay was not merged during the measured window")
		res.check(misses > 0 && hits > 0, "block cache: %g hits, %g misses; the workload is meant to overflow it", hits, misses)
	}

	if err := c.oracle(res, srv.url, stream, tgt.cursor.taken()); err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	m := res.Metrics
	m.set("peak_rss_mb", float64(max(usageReady.peakRSSBytes, usage1.peakRSSBytes))/(1<<20), "MB", 0)
	m.set("rss_mb", median(rssMB), "MB", len(rssMB))
	m.set("start_block_reads", ready["io.Reads"], "count", 0)
	// Timings and the per-update count: informational (see report.go).
	reads, updates := msOf(paced.reads), msOf(paced.updates)
	m.set("read_throughput", capacity.rate(capacity.reads), "1/s", len(capacity.reads))
	m.set("update_throughput", capacity.rate(capacity.updates), "1/s", weight(capacity.updates))
	m.set("read_p50_ms", median(reads), "ms", len(reads))
	m.set("update_p50_ms", median(updates), "ms", len(updates))
	m.set("update_mean_ms", mean(updates), "ms", len(updates))
	readTail, readPct := tailMs(reads)
	updTail, updPct := tailMs(updates)
	m.set("read_tail_ms", readTail, "ms", len(reads))
	m.set("update_tail_ms", updTail, "ms", len(updates))
	res.note("paced tails: read p%g, update p%g (the highest percentiles with ten samples beyond)", readPct, updPct)
	// The issue's p99s, where a thousand samples leave ten beyond them.
	if readPct >= 99 {
		m.set("read_p99_ms", quantile(reads, 0.99), "ms", len(reads))
	}
	if updPct >= 99 {
		m.set("update_p99_ms", quantile(updates, 0.99), "ms", len(updates))
	}
	m.set("block_reads_per_update", ratio(delta["io.Reads"], delta["serve.applied"]), "count", int(delta["serve.applied"]))
	res.note("the hypervisor stole %.1f%% of the machine's CPU time during the measured window", 100*stolen)
	res.note("paced phase: %d requests at %g/s on %d connections; the generator sent them late by p50 %.3f ms, p99 %.3f ms",
		paced.attempted, w.pacedRate, loadWorkers, quantile(paced.late, 0.5), quantile(paced.late, 0.99))
	if c.tr == nil {
		return res, nil
	}

	// Per-layer numbers that come from this workload's own traffic:
	// /stats counters differenced across the measured window.
	applied := delta["serve.applied"]
	// The timings again under their per-layer names. Throughput is that
	// of the workload's primary operation: updates where the traffic is
	// mostly updates, reads otherwise.
	m["e2e.throughput"] = m["read_throughput"]
	if w.mix.updateShare > 0.5 {
		m["e2e.throughput"] = m["update_throughput"]
	}
	m["e2e.read_p50_ms"] = m["read_p50_ms"]
	m["e2e.update_p50_ms"] = m["update_p50_ms"]
	m["e2e.update_mean_ms"] = m["update_mean_ms"]
	m["e2e.block_reads_per_update"] = m["block_reads_per_update"]
	m.set("loadgen.read_tail_ms", readTail, "ms", len(paced.reads))
	m.set("loadgen.read_tail_pctile", readPct, "%", 0)
	m.set("loadgen.update_tail_ms", updTail, "ms", len(paced.updates))
	m.set("loadgen.update_tail_pctile", updPct, "%", 0)
	m.set("loadgen.late_p99_ms", quantile(paced.late, 0.99), "ms", len(paced.late))
	m.set("loadgen.cpu_share", ratio((self1-self0).Seconds(), window.Seconds()*float64(numCPU())), "share", 0)
	m.set("loadgen.host_steal_share", stolen, "share", 0)
	untracedRate := float64(capacity.attempted-capacity.failed) / capacity.wall.Seconds()
	tracedRate := float64(tracedCap.attempted-tracedCap.failed) / tracedCap.wall.Seconds()
	m.set("trace.overhead_pct", 100*ratio(untracedRate-tracedRate, untracedRate), "%", 0)

	m.set("storage.block_reads_per_update", ratio(delta["io.Reads"], applied), "count", int(applied))
	m.set("storage.block_writes_per_update", ratio(delta["io.Writes"], applied), "count", int(applied))
	m.set("storage.cache_hit_rate", ratio(delta["disk.cache_hits"], delta["disk.cache_hits"]+delta["disk.cache_misses"]), "share", 0)
	m.set("storage.cache_evictions", delta["disk.cache_evictions"], "count", 0)

	m.set("serve.batch_mean", ratio(delta["serve.batch_edges_sum"], delta["serve.batches"]), "count", int(delta["serve.batches"]))
	m.set("serve.epochs_per_s", delta["serve.epochs"]/window.Seconds(), "1/s", int(delta["serve.epochs"]))
	m.set("serve.dirty_nodes_per_epoch", ratio(delta["serve.dirty_nodes_sum"], delta["serve.epochs"]), "count", 0)
	m.set("serve.cow_chunk_share", ratio(delta["serve.cow_chunks_copied"], delta["serve.cow_chunks_total"]), "share", 0)
	m.set("serve.memo_hit_rate", ratio(delta["serve.cache_hits"], delta["serve.cache_hits"]+delta["serve.cache_misses"]), "share", 0)
	m.set("serve.memo_repairs", delta["serve.memo_repairs"], "count", 0)
	m.set("serve.rejected", delta["serve.rejected"], "count", 0)
	m.set("serve.annihilated", delta["serve.annihilated_updates"], "count", 0)
	m.set("serve.queue_depth_max", polled.queueDepth, "count", polled.polls)

	m.set("diskengine.merges", delta["disk.merges"], "count", 0)
	m.set("diskengine.merged_mb", delta["disk.merged_bytes"]/(1<<20), "MB", 0)
	// Each applied update changes two 4-byte arcs of adjacency.
	m.set("diskengine.merge_write_amp", ratio(delta["disk.merged_bytes"], applied*8), "x", 0)
	m.set("diskengine.overlay_fill_max", ratio(polled.overlayArcs, after["disk.overlay_limit"]), "share", polled.polls)

	m.set("wal.bytes_per_update", ratio(delta["durability.wal_bytes"], applied), "B", 0)
	m.set("wal.appends", delta["durability.wal_appends"], "count", 0)
	m.set("wal.fsyncs", delta["durability.wal_fsyncs"], "count", 0)
	m.set("wal.checkpoints", delta["durability.checkpoints"], "count", 0)

	m.set("graphio.build_s", buildS, "s", 0)
	m.set("kcored.ready_s", srv.readyS, "s", 0)
	m.set("kcored.cpu_s_per_kupdate", ratio((usage1.cpu-usage0.cpu).Seconds(), applied/1000), "s", int(applied))
	m.set("kcored.bytes_per_edge", ratio(float64(usage1.rssBytes), after["edges"]), "B", 0)
	return res, nil
}

// prefill sends update-only requests, unmeasured, until upTo updates of
// the stream have been handed out.
func prefill(tgt *target, upTo int) *phase {
	big := *tgt
	big.batch = prefillBatch
	return runWorkers(func(_ int, cn *conn, part *phase, _ time.Time) {
		for big.cursor.taken()+big.batch <= upTo {
			part.record(cn.send(&big, opUpdate, 0, time.Now()))
		}
	})
}

// degeneracyReply is the body of GET /degeneracy.
type degeneracyReply struct {
	Degeneracy uint32  `json:"degeneracy"`
	Nodes      uint32  `json:"nodes"`
	Edges      int64   `json:"edges"`
	CoreSizes  []int64 `json:"core_sizes"`
}

// oracle rebuilds the edge set the server should now hold (the base
// with the first applied updates of the stream), decomposes it with the
// in-memory algorithm, and compares degeneracy, the k-core sizes and
// the core numbers of sampled nodes with what the server answers.
func (c *runCtx) oracle(res *runResult, url string, stream []update, applied int) error {
	final := c.fx.finalEdges(stream, applied)
	core, err := c.oracleCores(final)
	if err != nil {
		return err
	}
	var deg degeneracyReply
	if err := getJSON(url+"/degeneracy", &deg); err != nil {
		return err
	}
	res.check(deg.Degeneracy == kcore.Degeneracy(core), "degeneracy %d, oracle %d", deg.Degeneracy, kcore.Degeneracy(core))
	res.check(deg.Edges == int64(len(final)), "edges %d, oracle %d", deg.Edges, len(final))
	want := kcore.CoreSizes(core)
	same := len(want) == len(deg.CoreSizes)
	for k := 0; same && k < len(want); k++ {
		same = want[k] == deg.CoreSizes[k]
	}
	res.check(same, "k-core sizes differ from the oracle's")

	r := rand.New(rand.NewSource(c.seed + 6))
	for range oracleSamples {
		v := uint32(r.Intn(len(core)))
		var reply struct {
			Core uint32 `json:"core"`
		}
		if err := getJSON(fmt.Sprintf("%s/core?v=%d", url, v), &reply); err != nil {
			res.check(false, "core?v=%d: %v", v, err)
			continue
		}
		res.check(reply.Core == core[v], "core?v=%d is %d, oracle %d", v, reply.Core, core[v])
	}
	return nil
}

// oracleCores builds edges into a scratch graph and returns its core
// numbers from the in-memory algorithm.
func (c *runCtx) oracleCores(edges []kcore.Edge) ([]uint32, error) {
	dir, err := c.dir("oracle")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g")
	if err := c.fx.build(base, edges); err != nil {
		return nil, err
	}
	g, err := kcore.Open(base, nil)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	r, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.IMCore})
	if err != nil {
		return nil, fmt.Errorf("oracle decompose: %w", err)
	}
	return r.Core, nil
}

// polledMax holds the gauges a counter delta cannot give: the maxima
// seen while polling /stats during the measured window.
type polledMax struct {
	queueDepth  float64
	overlayArcs float64
	polls       int
}

// statsPoller polls /stats five times a second on its own connection.
// It runs only in traced runs, so end-to-end numbers never include it.
type statsPoller struct {
	quit chan struct{}
	wg   sync.WaitGroup
	max  polledMax
}

func startStatsPoller(url string) *statsPoller {
	p := &statsPoller{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			s, err := fetchStats(url)
			if err != nil {
				continue
			}
			p.max.polls++
			p.max.queueDepth = max(p.max.queueDepth, s["serve.queue_depth"])
			p.max.overlayArcs = max(p.max.overlayArcs, s["disk.overlay_arcs"])
		}
	}()
	return p
}

func (p *statsPoller) stop() polledMax {
	close(p.quit)
	p.wg.Wait()
	return p.max
}

// selfCPU is the harness's own user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
