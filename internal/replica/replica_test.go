package replica_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/httpapi"
	"kcore/internal/netfault"
	"kcore/internal/replica"
	"kcore/internal/serve"
	"kcore/internal/testutil"
	"kcore/internal/wal"
)

// The replication conformance suite: a real leader (durable registry +
// HTTP API) drives the standard mixed valid/invalid mutation workload
// while a follower tails its change stream, and the harness asserts the
// replication contract:
//
//   - at every LSN the follower acknowledges (publishes an epoch for),
//     its core numbers are bit-identical to the leader's at that same
//     LSN — never a torn or reordered state;
//   - the follower converges to the leader's final LSN;
//   - under injected network faults (drops, stalls, mid-frame
//     truncation, duplicated bytes) it resumes exactly-once from its
//     cursor, or falls back to checkpoint catch-up when checkpoint
//     retention removed the log segment its cursor needs.
//
// Every test is seeded and replayable with -seed, and runs once per
// follower frame count in followerReaders: the leader is always on the
// default frames, the follower reads its downloaded tables through the
// default frames or through a cache far smaller than the adjacency.

// followerReaders are the frames the follower side runs on.
var followerReaders = []engine.BackendConfig{
	{Backend: engine.BackendMem},
	{Backend: engine.BackendDisk, CacheBlocks: 4},
}

// eachReader runs fn once per follower reader, handing it the resolved
// open options for replica.Options.Open.
func eachReader(t *testing.T, fn func(t *testing.T, open kcore.OpenOptions)) {
	for _, c := range followerReaders {
		t.Run(c.Backend, func(t *testing.T) {
			open, err := c.OpenOptions(kcore.OpenOptions{BlockSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, open)
		})
	}
}

// leaderHarness is one running leader: durable registry, engine, HTTP
// server, and the per-LSN core-number history the follower is judged
// against. The server's URL outlives the registry behind it (restart).
type leaderHarness struct {
	t     *testing.T
	dir   string            // the registry's data dir
	fs    *faultfs.Injector // under every durability file operation; unarmed
	api   atomic.Pointer[httpapi.Server]
	reg   *engine.Registry
	eng   engine.Engine
	srv   *httptest.Server
	cs    engine.ChangeStreamer
	ms    *testutil.MutationStream
	cores map[uint64][]uint32 // leader core numbers at each LSN
}

// leaderSegmentBytes rolls the leader's log every few records, so every
// test streams across segment rolls and checkpoints can trim the log.
const leaderSegmentBytes = 256

// leaderOptions puts a registry on the data dir at dir.
func leaderOptions(dir string, fs faultfs.FS) *engine.Options {
	return &engine.Options{
		Serve: serve.Options{FlushInterval: time.Millisecond},
		Durability: &engine.DurabilityOptions{
			Dir:          dir,
			SegmentBytes: leaderSegmentBytes,
			FS:           fs,
		},
	}
}

func startLeader(t *testing.T, seed int64) *leaderHarness {
	t.Helper()
	const n = 200
	base, edges := testutil.WriteSocial(t, n, seed)
	h := &leaderHarness{
		t: t, dir: t.TempDir(), fs: faultfs.NewInjector(faultfs.OS),
		ms:    testutil.NewMutationStream(n, seed+1, edges),
		cores: make(map[uint64][]uint32),
	}
	reg := engine.NewRegistry(leaderOptions(h.dir, h.fs))
	eng, err := reg.Open("default", base)
	if err != nil {
		reg.Close()
		t.Fatal(err)
	}
	h.serve(reg, eng)
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.api.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(h.srv.Close)
	h.record()
	return h
}

// serve puts reg's default graph eng behind the harness's URL.
func (h *leaderHarness) serve(reg *engine.Registry, eng engine.Engine) {
	h.t.Cleanup(func() { reg.Close() })
	cs, ok := eng.(engine.ChangeStreamer)
	if !ok {
		h.t.Fatal("durable engine does not expose a change stream")
	}
	h.reg, h.eng, h.cs = reg, eng, cs
	h.api.Store(httpapi.New(reg, "default"))
}

// restart closes the leader and brings up, behind the same URL, the
// graph recovered from the data dir at dir: its own, or an image of it.
func (h *leaderHarness) restart(dir string) {
	h.t.Helper()
	h.reg.Close() //nolint:errcheck // a leader whose log failed closes with that error
	reg := engine.NewRegistry(leaderOptions(dir, nil))
	rep, err := reg.Recover()
	if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err != nil || rep.Graphs[0].Degraded {
		reg.Close()
		h.t.Fatalf("leader recovery: %v, %+v", err, rep)
	}
	eng, _ := reg.Get("default")
	h.serve(reg, eng)
}

// record captures the leader's core numbers at its current LSN. Called
// after every Apply, so the history covers every LSN the log can stream.
func (h *leaderHarness) record() {
	h.cores[h.cs.CurrentLSN()] = slices.Clone(h.eng.Snapshot().Cores())
}

// step applies one workload mutation (waiting for publication) and
// records the post-apply state. Valid mutations allocate exactly one
// LSN; invalid ones are rejected and allocate none.
func (h *leaderHarness) step() {
	mut := h.ms.Next()
	op := serve.OpInsert
	if mut.Op == testutil.OpDelete {
		op = serve.OpDelete
	}
	if err := h.eng.Apply(serve.Update{Op: op, U: mut.U, V: mut.V}); err != nil {
		h.t.Fatalf("leader apply: %v", err)
	}
	h.record()
}

// ackLog collects the follower's per-LSN published core numbers.
type ackLog struct {
	mu   sync.Mutex
	acks []ack
}

type ack struct {
	lsn   uint64
	cores []uint32
}

func (l *ackLog) hook(lsn uint64, ep *serve.Epoch) {
	l.mu.Lock()
	l.acks = append(l.acks, ack{lsn: lsn, cores: slices.Clone(ep.Cores())})
	l.mu.Unlock()
}

func (l *ackLog) snapshot() []ack {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.acks)
}

// oneConnPerRequest builds an HTTP client without keepalive reuse, so a
// fault plan keyed on connection index sees one connection per request
// (bootstrap = conn 0, first stream = conn 1, ...).
func oneConnPerRequest() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// waitConverged polls until the follower's cursor reaches lsn.
func waitConverged(t *testing.T, f *replica.Follower, lsn uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if f.Report().Replica.AppliedLSN >= lsn {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at LSN %d, want %d within %v", f.Report().Replica.AppliedLSN, lsn, within)
}

// verify asserts the conformance contract against the leader history:
// every acknowledged LSN has bit-identical cores, acks are strictly
// LSN-increasing, and the follower's final state equals the leader's.
func (h *leaderHarness) verify(f *replica.Follower, log *ackLog) {
	h.t.Helper()
	if err := f.Sync(); err != nil {
		h.t.Fatalf("follower sync: %v", err)
	}
	acks := log.snapshot()
	if len(acks) == 0 {
		h.t.Fatal("follower acknowledged no stream records")
	}
	prev := uint64(0)
	for _, a := range acks {
		if a.lsn <= prev {
			h.t.Fatalf("acks not strictly increasing: %d after %d", a.lsn, prev)
		}
		prev = a.lsn
		want, ok := h.cores[a.lsn]
		if !ok {
			h.t.Fatalf("follower acked LSN %d the leader never recorded", a.lsn)
		}
		if !slices.Equal(a.cores, want) {
			h.t.Fatalf("cores diverge at LSN %d", a.lsn)
		}
	}
	if got, want := f.Snapshot().Cores(), h.eng.Snapshot().Cores(); !slices.Equal(got, want) {
		h.t.Fatal("final follower cores differ from leader")
	}
}

// checkReader asserts the follower serves through the frames it was
// configured with, and reports their economy.
func checkReader(t *testing.T, f *replica.Follower, open kcore.OpenOptions) {
	t.Helper()
	frames := open.CacheBlocks
	if frames == 0 {
		frames = 64 // the default
	}
	if d := f.Report().Disk; d == nil || d.CacheBlocks != frames || d.CacheMisses == 0 {
		t.Fatalf("follower opened with CacheBlocks %d reports disk block %+v, want %d frames and some misses", open.CacheBlocks, d, frames)
	}
}

func TestConformanceSingleWriter(t *testing.T) {
	eachReader(t, func(t *testing.T, open kcore.OpenOptions) {
		seed := testutil.Seed(t, 901)
		h := startLeader(t, seed)
		log := &ackLog{}
		f, err := replica.New(replica.Options{
			Leader:    h.srv.URL,
			Open:      open,
			OnApplied: log.hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		for i := 0; i < 120; i++ {
			h.step()
		}
		waitConverged(t, f, h.cs.CurrentLSN(), 10*time.Second)
		h.verify(f, log)
		checkReader(t, f, open)
		if rs := f.Report().Replica; rs.Records == 0 || rs.Bootstraps != 1 {
			t.Fatalf("unexpected stream stats: %+v", rs)
		}
	})
}

// TestConformanceNetworkFaults runs the workload through a fault proxy
// that drops, truncates and corrupts-by-duplication the stream at
// seeded byte offsets. The follower must reconnect from its cursor and
// still be bit-identical at every acknowledged LSN.
func TestConformanceNetworkFaults(t *testing.T) {
	eachReader(t, func(t *testing.T, open kcore.OpenOptions) {
		seed := testutil.Seed(t, 903)
		h := startLeader(t, seed)
		rnd := h.ms.Rand()
		actions := []netfault.Action{netfault.Drop, netfault.Truncate, netfault.Duplicate, netfault.Drop, netfault.Truncate, netfault.Duplicate}
		offsets := make([]int64, len(actions))
		for i := range offsets {
			offsets[i] = int64(1 + rnd.Intn(4000))
		}
		proxy, err := netfault.New(h.srv.Listener.Addr().String(), func(conn int) netfault.Fault {
			// Connection 0 carries the bootstrap download — leave it clean so
			// the follower comes up; fault the next len(actions) connections.
			if conn == 0 || conn > len(actions) {
				return netfault.Fault{}
			}
			return netfault.Fault{
				Action:     actions[conn-1],
				AfterBytes: offsets[conn-1],
				DupBytes:   16,
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()

		log := &ackLog{}
		f, err := replica.New(replica.Options{
			Leader:       "http://" + proxy.Addr(),
			Open:         open,
			OnApplied:    log.hook,
			ReconnectMin: 5 * time.Millisecond,
			Client:       oneConnPerRequest(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		for i := 0; i < 150; i++ {
			h.step()
		}
		waitConverged(t, f, h.cs.CurrentLSN(), 20*time.Second)
		h.verify(f, log)
		checkReader(t, f, open)
		if f.Report().Replica.Reconnects == 0 {
			t.Fatal("fault plan injected no reconnects — the proxy never triggered")
		}
	})
}

// TestConformanceStall proves heartbeat-silence detection: the proxy
// freezes the stream longer than the follower's heartbeat timeout, and
// the follower must declare the connection dead, reconnect, and
// converge.
func TestConformanceStall(t *testing.T) {
	eachReader(t, func(t *testing.T, open kcore.OpenOptions) {
		seed := testutil.Seed(t, 904)
		h := startLeader(t, seed)
		proxy, err := netfault.New(h.srv.Listener.Addr().String(), func(conn int) netfault.Fault {
			if conn == 1 {
				return netfault.Fault{Action: netfault.Stall, AfterBytes: 64, Stall: 10 * time.Second}
			}
			return netfault.Fault{}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()

		log := &ackLog{}
		f, err := replica.New(replica.Options{
			Leader:           "http://" + proxy.Addr(),
			Open:             open,
			OnApplied:        log.hook,
			ReconnectMin:     5 * time.Millisecond,
			HeartbeatTimeout: time.Second,
			Client:           oneConnPerRequest(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		for i := 0; i < 60; i++ {
			h.step()
		}
		waitConverged(t, f, h.cs.CurrentLSN(), 20*time.Second)
		h.verify(f, log)
		checkReader(t, f, open)
		if f.Report().Replica.Reconnects == 0 {
			t.Fatal("stalled stream was never declared dead")
		}
	})
}

// TestCheckpointCatchUp proves the two ways back for a follower cut off
// while the leader writes on, its log rolling every few records. While
// checkpoint retention still keeps the segment its cursor needs, it
// resumes from the log — however many records that is. Once a second
// checkpoint has dropped those segments, the cursor is unservable (410)
// and it must download a fresh checkpoint, then stream on from there.
func TestCheckpointCatchUp(t *testing.T) {
	eachReader(t, func(t *testing.T, open kcore.OpenOptions) {
		seed := testutil.Seed(t, 905)
		h := startLeader(t, seed)
		var refuse atomic.Bool
		proxy, err := netfault.New(h.srv.Listener.Addr().String(), func(conn int) netfault.Fault {
			if refuse.Load() {
				return netfault.Fault{Action: netfault.Drop, AfterBytes: 0}
			}
			return netfault.Fault{}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()

		log := &ackLog{}
		f, err := replica.New(replica.Options{
			Leader:       "http://" + proxy.Addr(),
			Open:         open,
			OnApplied:    log.hook,
			ReconnectMin: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		for i := 0; i < 10; i++ {
			h.step()
		}
		waitConverged(t, f, h.cs.CurrentLSN(), 10*time.Second)
		cp, ok := h.eng.(engine.Checkpointer)
		if !ok {
			t.Fatal("durable engine does not expose Checkpoint")
		}
		// cutOff severs the follower (the live stream dies, reconnects are
		// refused), then ckpts times writes on across many segments and
		// commits a checkpoint, and lets the follower back in.
		cutOff := func(ckpts int) {
			refuse.Store(true)
			proxy.SeverAll()
			for i := 0; i < ckpts; i++ {
				for j := 0; j < 60; j++ {
					h.step()
				}
				if err := cp.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			refuse.Store(false)
			waitConverged(t, f, h.cs.CurrentLSN(), 20*time.Second)
		}

		cutOff(1) // the older retained checkpoint is the opening one
		if n := f.Report().Replica.Bootstraps; n != 1 {
			t.Fatalf("a follower the log still reaches back to bootstrapped again: %d bootstraps", n)
		}
		cutOff(2) // now the older retained checkpoint is past the cursor
		if n := f.Report().Replica.Bootstraps; n != 2 {
			t.Fatalf("want exactly one checkpoint catch-up after retention passed the cursor, got %d bootstraps", n-1)
		}
		// The follower is streaming again after catch-up: a few more records
		// must flow through the stream path (not another bootstrap).
		for i := 0; i < 10; i++ {
			h.step()
		}
		waitConverged(t, f, h.cs.CurrentLSN(), 10*time.Second)
		h.verify(f, log)
		checkReader(t, f, open)
		if rs := f.Report().Replica; rs.Bootstraps != 2 || rs.CatchupBytes == 0 {
			t.Fatalf("catch-up accounting: %+v", rs)
		}
	})
}

// TestFollowerRefusesWrites pins the read-only contract of the engine
// surface itself (the HTTP 409 mapping is tested in internal/httpapi).
func TestFollowerRefusesWrites(t *testing.T) {
	seed := testutil.Seed(t, 906)
	h := startLeader(t, seed)
	f, err := replica.New(replica.Options{Leader: h.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, try := range []error{
		f.Enqueue(serve.Update{Op: serve.OpInsert, U: 1, V: 2}),
		f.Apply(serve.Update{Op: serve.OpDelete, U: 1, V: 2}),
	} {
		if !errors.Is(try, engine.ErrReadOnly) {
			t.Fatalf("want ErrReadOnly, got %v", try)
		}
	}
}

// TestDegradedLeaderIsNotAStreamSource: a leader recovered degraded —
// here mid-log damage behind two readable records, so recovery skipped
// the replay — serves its checkpoint's state and reports that state's
// LSN, not the readable records'. Its change stream answers 503, not
// 410: a follower bootstraps from the checkpoint once and serves the
// leader's cores, instead of downloading it again on every reconnect.
func TestDegradedLeaderIsNotAStreamSource(t *testing.T) {
	seed := testutil.Seed(t, 910)
	base, edges := testutil.WriteSocial(t, 200, seed)
	opts := leaderOptions(t.TempDir(), nil)
	opts.Durability.SegmentBytes = 32 // one record per segment
	reg := engine.NewRegistry(opts)
	defer reg.Close()
	eng, err := reg.Open("default", base)
	if err != nil {
		t.Fatal(err)
	}
	ms := testutil.NewMutationStream(200, seed+1, edges)
	for i := 0; i < 5; i++ {
		applyValid(t, eng, ms)
	}
	// Every Apply synced: the copy is the image of a leader that crashed
	// with a five-record tail.
	img := t.TempDir()
	if err := os.CopyFS(img, os.DirFS(opts.Durability.Dir)); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	segs, err := filepath.Glob(filepath.Join(img, "default", "wal", "s0", "*.seg"))
	if err != nil || len(segs) != 5 {
		t.Fatalf("segments = %v, %v; want 5", segs, err)
	}
	slices.Sort(segs)
	data, err := os.ReadFile(segs[2])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[2], data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := wal.Scan(nil, filepath.Join(img, "default"), nil)
	if err != nil || !sc.Damaged || len(sc.Records) != 2 {
		t.Fatalf("fixture: scan = %v, %+v; want damage behind 2 readable records", err, sc)
	}

	reg2 := engine.NewRegistry(leaderOptions(img, nil))
	defer reg2.Close()
	rep, err := reg2.Recover()
	if err != nil || len(rep.Graphs) != 1 || !rep.Graphs[0].Degraded {
		t.Fatalf("recovery: %v, %+v; want one degraded graph", err, rep)
	}
	eng, _ = reg2.Get("default")
	if got := eng.Report().Durability.LSN; got != sc.Manifest.LSN {
		t.Fatalf("durability.lsn = %d, want the checkpoint's %d: the replay was skipped", got, sc.Manifest.LSN)
	}
	srv := httptest.NewServer(httpapi.New(reg2, "default"))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/g/default/changes?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded leader's change stream answered %d, want 503", resp.StatusCode)
	}

	f, err := replica.New(replica.Options{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	time.Sleep(time.Second)
	if n := f.Report().Replica.Bootstraps; n != 1 {
		t.Fatalf("%d bootstraps in 1s off a degraded leader, want 1", n)
	}
	if !slices.Equal(f.Snapshot().Cores(), eng.Snapshot().Cores()) {
		t.Fatal("follower does not serve the degraded leader's cores")
	}
}
