package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/serve"
)

// probeBatch is the edges per batched call, as in the write workloads.
const probeBatch = 32

// probeSizes is how much work each probe does. Each probe is a short,
// fixed amount of work on the run's fixture; at fullProbes they take a
// traced run about fifteen seconds. The self-test runs them smaller.
type probeSizes struct {
	maintEdges  int           // single-edge maintenance operations per algorithm
	applyCalls  int           // Engine.Apply calls of probeBatch updates
	apply1Calls int           // Engine.Apply calls of one update
	reads       int           // in-process CoreOf calls
	httpReads   int           // sequential GET core?v= on an idle server
	httpUpdates int           // sequential single-update POSTs on an idle server
	recUpdates  int           // update requests acked before the SIGKILL
	flood       time.Duration // closed-loop write flood, single writer and two shards
	lagSamples  int           // leader ack until visible on the follower
	catchup     int           // records sent while the follower is stopped
}

var fullProbes = probeSizes{
	maintEdges: 60, applyCalls: 40, apply1Calls: 100, reads: 1 << 20,
	httpReads: 12000, httpUpdates: 300, recUpdates: 100, flood: 3 * time.Second,
	lagSamples: 100, catchup: 200,
}

// copyGraph copies the built graph files from one path prefix to
// another, so a probe that mutates its graph never disturbs the next.
func copyGraph(dst, src string) error {
	for _, ext := range graphFiles {
		in, err := os.Open(src + ext)
		if err != nil {
			return err
		}
		out, err := os.Create(dst + ext)
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("copy %s%s: %w", src, ext, err)
		}
	}
	return nil
}

// timed runs fn inside a span and returns how long it took.
func (c *runCtx) timed(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := c.tr.call(name, fn)
	return time.Since(t0), err
}

// runProbes measures every layer from outside on the run's fixture:
// timing calls into the public API, and subtracting configurations from
// each other (disk vs mem, durable vs not, HTTP vs in-process). The
// probes do not depend on the workload; a traced run of any workload
// runs all of them, so its per-layer picture is complete.
func (c *runCtx) runProbes(res *runResult) error {
	dir, err := c.dir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "src")
	if err := c.fx.build(src, c.fx.raw); err != nil {
		return err
	}
	bytes, err := graphBytes(src)
	if err != nil {
		return err
	}
	// Outside-in: the blocks a build must have written are the blocks
	// its files occupy.
	res.Metrics.set("graphio.build_block_writes", float64((bytes+4095)/4096), "count", 0)

	// Every probe server starts from the base graph, so each replays
	// the same stream from its beginning.
	stream := c.fx.makeStream(c.seed+7, 1<<17)
	probes := []func(*runResult, string, string, []update) error{
		c.probeBatchAPI, c.probeEngines, c.probeHTTP, c.probeRecovery, c.probeShard, c.probeReplica,
	}
	for _, p := range probes {
		if err := p(res, dir, src, stream); err != nil {
			return err
		}
	}
	return nil
}

// probeBatchAPI times the root kcore API: open, scan, the three
// semi-external decompositions and the in-memory one, single-edge and
// batched maintenance, flush, and snapshots.
func (c *runCtx) probeBatchAPI(res *runResult, dir, src string, _ []update) error {
	m := res.Metrics
	base := filepath.Join(dir, "api")
	if err := copyGraph(base, src); err != nil {
		return err
	}
	var g *kcore.Graph
	var opens []float64
	for range 5 {
		if g != nil {
			g.Close()
		}
		d, err := c.timed("kcore.Open", func() (err error) { g, err = kcore.Open(base, nil); return })
		if err != nil {
			return err
		}
		opens = append(opens, float64(d)/1e6)
	}
	defer func() { g.Close() }()
	m.set("storage.open_ms", median(opens), "ms", len(opens))

	etBytes, err := os.Stat(base + ".et")
	if err != nil {
		return err
	}
	d, err := c.timed("Graph.VisitEdges", func() error { return g.VisitEdges(func(u, v uint32) error { return nil }) })
	if err != nil {
		return err
	}
	m.set("storage.scan_mb_per_s", float64(etBytes.Size())/(1<<20)/d.Seconds(), "MB/s", 0)

	var star *kcore.Result
	for _, a := range []struct {
		alg  kcore.Algorithm
		name string
	}{{kcore.SemiCoreBasic, "basic"}, {kcore.SemiCorePlus, "plus"}, {kcore.IMCore, "imcore"}, {kcore.SemiCoreStar, "star"}} {
		var r *kcore.Result
		d, err := c.timed("kcore.Decompose "+a.alg.String(), func() (err error) {
			r, err = kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: a.alg})
			return
		})
		if err != nil {
			return err
		}
		if a.alg == kcore.IMCore {
			m.set("imcore.decompose_s", d.Seconds(), "s", 0)
			continue
		}
		m.set("semicore."+a.name+"_s", d.Seconds(), "s", 0)
		m.set("semicore."+a.name+"_block_reads", float64(r.Info.IO.Reads), "count", 0)
		if a.alg == kcore.SemiCoreStar {
			star = r
			m.set("semicore.star_iterations", float64(r.Info.Iterations), "count", 0)
			m.set("semicore.star_node_computations", float64(r.Info.NodeComputations), "count", 0)
		}
	}

	// Maintenance: delete then re-insert a seeded sample, once per
	// insertion algorithm, then the same in batched calls.
	r := rand.New(rand.NewSource(c.seed + 8))
	perm := r.Perm(len(c.fx.base))
	sample := func(k int) []kcore.Edge {
		out := make([]kcore.Edge, k)
		for i := range out {
			out[i] = c.fx.base[perm[i]]
		}
		perm = perm[k:]
		return out
	}
	var snapDirty []uint32
	var maint *kcore.Maintainer
	for _, alg := range []kcore.InsertAlgorithm{kcore.SemiInsertTwoPhase, kcore.SemiInsertStar} {
		opts := &kcore.MaintainerOptions{Insert: alg}
		if alg == kcore.SemiInsertStar {
			opts.FromResult = star
		}
		var mt *kcore.Maintainer
		if _, err := c.timed("kcore.NewMaintainer", func() (err error) { mt, err = kcore.NewMaintainer(g, opts); return }); err != nil {
			return err
		}
		edges := sample(c.probes.maintEdges)
		var delUs, insUs []float64
		var delReads, insReads, insNC int64
		for _, e := range edges {
			var info kcore.RunInfo
			d, err := c.timed("Maintainer.DeleteEdge", func() (err error) { info, err = mt.DeleteEdge(e.U, e.V); return })
			if err != nil {
				return err
			}
			delUs = append(delUs, float64(d)/1e3)
			delReads += info.IO.Reads
		}
		for _, e := range edges {
			var info kcore.RunInfo
			d, err := c.timed("Maintainer.InsertEdge "+alg.String(), func() (err error) { info, err = mt.InsertEdge(e.U, e.V); return })
			if err != nil {
				return err
			}
			insUs = append(insUs, float64(d)/1e3)
			insReads += info.IO.Reads
			insNC += info.NodeComputations
			snapDirty = info.Dirty
		}
		if alg == kcore.SemiInsertTwoPhase {
			m.set("maintain.insert_twophase_us", mean(insUs), "us", len(insUs))
			continue
		}
		maint = mt
		k := float64(len(edges))
		m.set("maintain.insert_star_us", mean(insUs), "us", len(insUs))
		m.set("maintain.delete_star_us", mean(delUs), "us", len(delUs))
		m.set("maintain.insert_block_reads", float64(insReads)/k, "count", len(edges))
		m.set("maintain.delete_block_reads", float64(delReads)/k, "count", len(edges))
		m.set("maintain.insert_node_computations", float64(insNC)/k, "count", len(edges))
	}
	var batchUs []float64
	for range 3 {
		edges := sample(probeBatch)
		if _, err := c.timed("Maintainer.DeleteEdges", func() error { _, err := maint.DeleteEdges(edges); return err }); err != nil {
			return err
		}
		d, err := c.timed("Maintainer.InsertEdges", func() error { _, err := maint.InsertEdges(edges); return err })
		if err != nil {
			return err
		}
		batchUs = append(batchUs, float64(d)/1e3/probeBatch)
	}
	m.set("maintain.batch_insert_us_per_edge", mean(batchUs), "us", len(batchUs)*probeBatch)

	// Snapshots: a full copy, a delta after one insert, a k-core query.
	var snap *kcore.CoreSnapshot
	d, err = c.timed("Maintainer.Snapshot", func() error { snap = maint.Snapshot(); return nil })
	if err != nil {
		return err
	}
	m.set("snapshot.full_ms", float64(d)/1e6, "ms", 0)
	var deltas, queries []float64
	for range 20 {
		d, _ := c.timed("Maintainer.SnapshotDelta", func() error { snap, _ = maint.SnapshotDelta(snap, snapDirty); return nil })
		deltas = append(deltas, float64(d)/1e3)
	}
	m.set("snapshot.delta_us", median(deltas), "us", len(deltas))
	for i := range 20 {
		k := 1 + uint32(i)*snap.Kmax/20
		d, _ := c.timed("CoreSnapshot.KCore", func() error { snap.KCore(k); return nil })
		queries = append(queries, float64(d)/1e3)
	}
	m.set("snapshot.kcore_query_us", median(queries), "us", len(queries))

	// Flush with a batch of deletes pending, so there is something to
	// write back.
	if _, err := maint.DeleteEdges(sample(probeBatch)); err != nil {
		return err
	}
	d, err = c.timed("Graph.Flush", g.Flush)
	if err != nil {
		return err
	}
	m.set("dyngraph.flush_s", d.Seconds(), "s", 0)
	return nil
}

// toServe converts wire updates to the engine's type.
func toServe(ups []update) []serve.Update {
	out := make([]serve.Update, len(ups))
	for i, u := range ups {
		op := serve.OpInsert
		if u.Op == "delete" {
			op = serve.OpDelete
		}
		out[i] = serve.Update{Op: op, U: u.U, V: u.V}
	}
	return out
}

// probeEngines times Engine.Apply in process on the three engine
// configurations the serve workloads run (mem, disk, mem + durable),
// and the read path of the mem engine. The ratios are the cost of the
// disk backend and of the write-ahead log, measured by subtraction.
func (c *runCtx) probeEngines(res *runResult, dir, src string, stream []update) error {
	m := res.Metrics
	applyUs := func(name string, opts *engine.Options, cfg engine.BackendConfig, readPath bool) (float64, error) {
		base := filepath.Join(dir, "eng-"+name)
		if err := copyGraph(base, src); err != nil {
			return 0, err
		}
		reg := engine.NewRegistry(opts)
		defer reg.Close()
		var eng engine.Engine
		if _, err := c.timed("Registry.OpenBackend "+name, func() (err error) {
			eng, err = reg.OpenBackend("probe", base, cfg)
			return
		}); err != nil {
			return 0, err
		}
		ups := toServe(stream)
		t0 := time.Now()
		for i := range c.probes.applyCalls {
			batch := ups[i*probeBatch : (i+1)*probeBatch]
			if _, err := c.timed("Engine.Apply "+name, func() error { return eng.Apply(batch...) }); err != nil {
				return 0, err
			}
		}
		perUpdate := float64(time.Since(t0)) / 1e3 / float64(c.probes.applyCalls*probeBatch)
		if !readPath {
			return perUpdate, nil
		}

		// Single updates, and the first k-core query on each new epoch
		// (a memo miss).
		ups = ups[c.probes.applyCalls*probeBatch:]
		var apply1, cold []float64
		for i := range c.probes.apply1Calls {
			d, err := c.timed("Engine.Apply single", func() error { return eng.Apply(ups[i]) })
			if err != nil {
				return 0, err
			}
			apply1 = append(apply1, float64(d)/1e3)
			snap := eng.Snapshot()
			d, _ = c.timed("Epoch.KCoreAt cold", func() error { snap.KCoreAt(1 + uint32(i)%max(snap.Kmax, 1)); return nil })
			cold = append(cold, float64(d)/1e3)
		}
		m.set("serve.apply1_us", median(apply1), "us", len(apply1))
		m.set("serve.kcore_cold_us", median(cold), "us", len(cold))
		r := rand.New(rand.NewSource(c.seed + 9))
		d, _ := c.timed("Epoch.CoreOf loop", func() error {
			for range c.probes.reads {
				if _, err := eng.Snapshot().CoreOf(uint32(r.Intn(int(c.fx.n)))); err != nil {
					return err
				}
			}
			return nil
		})
		m.set("serve.read_ns", float64(d)/float64(c.probes.reads), "ns", c.probes.reads)
		return perUpdate, nil
	}

	mem, err := applyUs("mem", nil, engine.BackendConfig{}, true)
	if err != nil {
		return err
	}
	disk, err := applyUs("disk", nil, engine.BackendConfig{Backend: engine.BackendDisk, CacheBlocks: 512}, false)
	if err != nil {
		return err
	}
	// The zero Policy is the interval fsync policy the disk workload uses.
	durable, err := applyUs("durable", &engine.Options{Durability: &engine.DurabilityOptions{Dir: filepath.Join(dir, "eng-wal")}}, engine.BackendConfig{}, false)
	if err != nil {
		return err
	}
	n := c.probes.applyCalls * probeBatch
	m.set("serve.apply_us_per_update", mem, "us", n)
	m.set("diskengine.apply_us_per_update", disk, "us", n)
	m.set("diskengine.overhead_x", ratio(disk, mem), "x", 0)
	m.set("wal.apply_us_per_update", durable, "us", n)
	m.set("wal.overhead_x", ratio(durable, mem), "x", 0)
	return nil
}

// probeHTTP measures what the HTTP layer adds to an idle in-memory
// server: sequential reads and single updates on one connection, with
// the client's httptrace splitting each round trip. Subtracting the
// in-process probes gives the overheads.
func (c *runCtx) probeHTTP(res *runResult, dir, src string, stream []update) error {
	m := res.Metrics
	base := filepath.Join(dir, "http")
	if err := copyGraph(base, src); err != nil {
		return err
	}
	srv, err := startKcored(c.kcored, "-graph", base)
	if err != nil {
		return err
	}
	defer srv.kill()
	tr := newTracer() // private: its self times feed the metrics below
	tgt := &target{url: srv.url, n: c.fx.n, kmax: 1, batch: 1, cursor: &streamCursor{stream: stream}, tr: tr}
	conn := newConn()
	defer conn.close()
	r := rand.New(rand.NewSource(c.seed + 10))
	var reads, updates []float64 // latencies, ms
	for range c.probes.httpReads {
		s := conn.send(tgt, opCore, r.Uint32(), time.Now())
		res.check(!s.failed, "http probe read failed")
		reads = append(reads, toMs(s.latency))
	}
	rows := tr.selfTimes()
	m.set("httpapi.ttfb_us", meanSelfUs(rows, "ttfb"), "us", len(reads))
	m.set("httpapi.body_read_us", meanSelfUs(rows, "read_body"), "us", len(reads))
	for range c.probes.httpUpdates {
		s := conn.send(tgt, opUpdate, 0, time.Now())
		res.check(!s.failed, "http probe update failed")
		updates = append(updates, toMs(s.latency))
	}
	c.tr.merge(tr.spans, tr.t0.Sub(c.tr.t0))
	m.set("httpapi.read_overhead_us", median(reads)*1e3-m["serve.read_ns"].Value/1e3, "us", len(reads))
	m.set("httpapi.update_overhead_us", median(updates)*1e3-m["serve.apply1_us"].Value, "us", len(updates))
	m.set("httpapi.read_p999_ms", quantile(reads, 0.999), "ms", len(reads))

	// The single-writer baseline of the shard probe: the write
	// workloads' flood on this same server.
	flood := closedLoop(&target{url: srv.url, n: c.fx.n, kmax: 1, batch: probeBatch, cursor: tgt.cursor}, writeMix, c.seed+11, c.probes.flood)
	res.Attempted += int64(flood.attempted)
	res.Failed += int64(flood.failed)
	m.set("shard.single_update_throughput", flood.rate(flood.updates), "1/s", weight(flood.updates))
	return nil
}

// probeRecovery measures crash recovery of the semi-external serving
// configuration: apply updates, SIGKILL, restart on the same data
// directory, time until ready; then the recovered server's answers are
// checked against the oracle like any other.
func (c *runCtx) probeRecovery(res *runResult, dir, src string, stream []update) error {
	base := filepath.Join(dir, "rec")
	if err := copyGraph(base, src); err != nil {
		return err
	}
	argv := writeDisk.argv(base, filepath.Join(dir, "rec-data"))
	srv, err := startKcored(c.kcored, argv...)
	if err != nil {
		return err
	}
	tgt := &target{url: srv.url, n: c.fx.n, kmax: 1, batch: probeBatch, cursor: &streamCursor{stream: stream}, tr: c.tr}
	conn := newConn()
	for range c.probes.recUpdates {
		s := conn.send(tgt, opUpdate, 0, time.Now())
		res.check(!s.failed, "recovery probe update failed")
	}
	conn.close()
	srv.kill()
	srv, err = startKcored(c.kcored, argv...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer srv.kill()
	res.Metrics.set("wal.recovery_s", srv.readyS, "s", 0)
	return c.oracle(res, srv.url, stream, tgt.cursor.taken())
}

// probeShard floods a two-shard kcored with the write workloads' mix.
// It is informational: when kcored refuses -shards the metrics are 0
// and a note says so.
func (c *runCtx) probeShard(res *runResult, dir, src string, stream []update) error {
	m := res.Metrics
	names := []string{"shard.update_throughput", "shard.vs_single_x", "shard.compose_ms_per_sync", "shard.compose_exclusive_us", "shard.cross_shard_edge_ratio"}
	units := []string{"1/s", "x", "ms", "us", "share"}
	base := filepath.Join(dir, "shard")
	if err := copyGraph(base, src); err != nil {
		return err
	}
	srv, err := startKcored(c.kcored, "-graph", base, "-shards", "2")
	if err != nil {
		for i, n := range names {
			m.set(n, 0, units[i], 0)
		}
		res.note("shard probe skipped: %v", err)
		return nil
	}
	defer srv.kill()
	before, err := fetchStats(srv.url)
	if err != nil {
		return err
	}
	tgt := &target{url: srv.url, n: c.fx.n, kmax: 1, batch: probeBatch, cursor: &streamCursor{stream: stream}}
	flood := closedLoop(tgt, writeMix, c.seed+12, c.probes.flood)
	res.Attempted += int64(flood.attempted)
	res.Failed += int64(flood.failed)
	after, err := fetchStats(srv.url)
	if err != nil {
		return err
	}
	d := after.sub(before)
	composes := d["shards.routing.composes"]
	m.set(names[0], flood.rate(flood.updates), units[0], weight(flood.updates))
	m.set(names[1], ratio(m[names[0]].Value, m["shard.single_update_throughput"].Value), units[1], 0)
	m.set(names[2], ratio(d["shards.routing.compose_total_ns_sum"], composes)/1e6, units[2], int(composes))
	m.set(names[3], ratio(d["shards.routing.compose_exclusive_ns_sum"], composes)/1e3, units[3], int(composes))
	m.set(names[4], after["cross_shard_edge_ratio"], units[4], 0)
	return nil
}

// probeReplica runs a durable leader and a follower: how long the
// follower takes to bootstrap, how long an acked leader update takes to
// become visible on the follower, and how fast a stopped follower
// catches up on records. Informational, like the shard probe.
func (c *runCtx) probeReplica(res *runResult, dir, src string, stream []update) error {
	m := res.Metrics
	names := []string{"replica.bootstrap_s", "replica.visible_lag_p50_ms", "replica.visible_lag_p99_ms", "replica.catchup_records_per_s"}
	units := []string{"s", "ms", "ms", "1/s"}
	skip := func(err error) error {
		for i, n := range names {
			m.set(n, 0, units[i], 0)
		}
		res.note("replica probe skipped: %v", err)
		return nil
	}
	base := filepath.Join(dir, "lead")
	if err := copyGraph(base, src); err != nil {
		return err
	}
	leader, err := startKcored(c.kcored, "-graph", base, "-data-dir", filepath.Join(dir, "lead-data"))
	if err != nil {
		return err // a durable single-writer server is not optional
	}
	defer leader.kill()
	follower, err := startKcored(c.kcored, "-follow", leader.url, "-data-dir", filepath.Join(dir, "follow-data"), "-flush", "1ms")
	if err != nil {
		return skip(err)
	}
	defer follower.kill()
	m.set(names[0], follower.readyS, units[0], 0)

	tgt := &target{url: leader.url, n: c.fx.n, kmax: 1, batch: 1, cursor: &streamCursor{stream: stream}}
	conn := newConn()
	defer conn.close()
	// waitVisible polls the follower until it has applied the leader's
	// current LSN.
	waitVisible := func() error {
		ls, err := fetchStats(leader.url)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(readyDeadline)
		for time.Now().Before(deadline) {
			fs, err := fetchStats(follower.url)
			if err != nil {
				return err
			}
			if fs["replica.applied_lsn"] >= ls["durability.lsn"] {
				return nil
			}
		}
		return fmt.Errorf("follower did not reach lsn %g", ls["durability.lsn"])
	}
	var lags []float64
	for range c.probes.lagSamples {
		s := conn.send(tgt, opUpdate, 0, time.Now())
		res.check(!s.failed, "replica probe update failed")
		acked := time.Now()
		if err := waitVisible(); err != nil {
			return skip(err)
		}
		lags = append(lags, float64(time.Since(acked))/1e6)
	}
	m.set(names[1], median(lags), units[1], len(lags))
	m.set(names[2], quantile(lags, 0.99), units[2], len(lags))

	// Catch-up: the follower sleeps through a burst of records.
	if err := follower.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return skip(err)
	}
	for range c.probes.catchup {
		s := conn.send(tgt, opUpdate, 0, time.Now())
		res.check(!s.failed, "replica probe update failed")
	}
	t0 := time.Now()
	if err := follower.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return skip(err)
	}
	if err := waitVisible(); err != nil {
		return skip(err)
	}
	m.set(names[3], float64(c.probes.catchup)/time.Since(t0).Seconds(), units[3], c.probes.catchup)

	// The follower must now answer exactly like the oracle.
	return c.oracle(res, follower.url, stream, tgt.cursor.taken())
}
