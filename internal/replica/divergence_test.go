package replica_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/replica"
	"kcore/internal/serve"
	"kcore/internal/testutil"
	"kcore/internal/wal"
)

// poisonedLeader fronts a real leader: the first change-stream
// connection is answered with the given frames followed by heartbeats
// until the client leaves; every other request — the checkpoint
// download, later stream connections — goes to the real handler.
func poisonedLeader(t *testing.T, h *leaderHarness, frames []byte) *httptest.Server {
	t.Helper()
	var poisoned atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/changes") || !poisoned.CompareAndSwap(false, true) {
			h.srv.Config.Handler.ServeHTTP(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
		buf := frames
		for {
			if _, err := w.Write(buf); err != nil {
				return
			}
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			buf = wal.AppendHeartbeat(buf[:0], 2)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestStreamDivergenceRebootstraps: a stream record the follower's graph
// does not take in full can only mean its copy is not the state the
// leader logged the record against. Whether the graph refuses some of
// the record's updates or all of them, the cursor must not move past it
// — not for that record and not for the valid one behind it — no epoch
// may be acknowledged for either, and the follower must rebuild from a
// checkpoint and converge on the real leader.
func TestStreamDivergenceRebootstraps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		partial bool
	}{{"partial", true}, {"full", false}} {
		t.Run(tc.name, func(t *testing.T) {
			seed := testutil.Seed(t, 907)
			h := startLeader(t, seed)
			live := h.ms.Live()
			present := live[0]
			has := make(map[graph.Edge]bool, len(live))
			for _, e := range live {
				has[e] = true
			}
			var absent []graph.Edge
			for v := uint32(1); len(absent) < 2; v++ {
				if e := (graph.Edge{U: 0, V: v}); !has[e] {
					absent = append(absent, e)
				}
			}
			// LSN 1 re-inserts an edge the follower already has (next to a
			// valid insert, or alone); LSN 2 is valid on its own.
			bad := []graph.Edge{present}
			if tc.partial {
				bad = append(bad, absent[0])
			}
			frames := wal.AppendRecord(nil, 1, nil, bad)
			frames = wal.AppendRecord(frames, 2, nil, absent[1:])
			srv := poisonedLeader(t, h, frames)

			log := &ackLog{}
			f, err := replica.New(replica.Options{
				Leader:       srv.URL,
				OnApplied:    log.hook,
				ReconnectMin: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			deadline := time.Now().Add(10 * time.Second)
			for f.Report().Replica.Bootstraps < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("follower never rebuilt from a checkpoint: bootstraps %d, applied_lsn %d",
						f.Report().Replica.Bootstraps, f.Report().Replica.AppliedLSN)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if acks := log.snapshot(); len(acks) != 0 {
				t.Fatalf("follower acknowledged LSN %d off a stream it had diverged from", acks[0].lsn)
			}
			// Back on the real stream: the leader's own LSNs 1.. arrive and
			// every acknowledged one matches the leader's history.
			for i := 0; i < 40; i++ {
				h.step()
			}
			waitConverged(t, f, h.cs.CurrentLSN(), 10*time.Second)
			h.verify(f, log)
		})
	}
}

// stepUntil applies workload mutations on the leader until it has
// logged n more records.
func (h *leaderHarness) stepUntil(n uint64) {
	for target := h.cs.CurrentLSN() + n; h.cs.CurrentLSN() < target; {
		h.step()
	}
}

// waitSame polls until the follower serves exactly the leader's cores at
// the leader's LSN.
func waitSame(t *testing.T, h *leaderHarness, f *replica.Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Report().Replica.AppliedLSN != h.cs.CurrentLSN() || !slices.Equal(f.Snapshot().Cores(), h.eng.Snapshot().Cores()) {
		if time.Now().After(deadline) {
			t.Fatalf("follower at LSN %d never served the leader's cores at LSN %d (%d bootstraps)",
				f.Report().Replica.AppliedLSN, h.cs.CurrentLSN(), f.Report().Replica.Bootstraps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerNeverSeesUnloggedRecord: a record whose log append failed
// is not history. The leader serves it and refuses writes from then on,
// but no follower may apply it — after the leader restarts it logs a
// different record under the same LSN, which a follower holding the
// first would skip as a duplicate.
func TestFollowerNeverSeesUnloggedRecord(t *testing.T) {
	seed := testutil.Seed(t, 908)
	h := startLeader(t, seed)
	f, err := replica.New(replica.Options{Leader: h.srv.URL, ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h.stepUntil(10)
	k := h.cs.CurrentLSN() + 1
	waitConverged(t, f, k-1, 10*time.Second)

	// Record k deletes every edge of one node, so a follower holding it
	// serves that node at core 0 and the leader, which never logged it,
	// does not. The next log write fails.
	v := h.ms.Live()[0].U
	var ups []serve.Update
	for _, e := range h.ms.Live() {
		if e.U == v || e.V == v {
			ups = append(ups, serve.Update{Op: serve.OpDelete, U: e.U, V: e.V})
		}
	}
	h.fs.Arm(int64(len(h.fs.Boundaries()))+1, faultfs.Fail)
	if err := h.eng.Apply(ups...); err == nil {
		t.Fatal("the leader acked a record its log refused")
	}
	if h.cs.CurrentLSN() < k {
		t.Fatalf("fixture: the failed flush allocated no LSN (leader at %d)", h.cs.CurrentLSN())
	}
	time.Sleep(300 * time.Millisecond)
	if got := f.Report().Replica.AppliedLSN; got != k-1 {
		t.Fatalf("follower applied up to LSN %d; the leader's log holds %d", got, k-1)
	}

	h.restart(h.dir)
	if got := h.cs.CurrentLSN(); got != k-1 {
		t.Fatalf("restarted leader at LSN %d, want %d", got, k-1)
	}
	h.stepUntil(3) // LSN k is now a different record
	waitSame(t, h, f)
	if n := f.Report().Replica.Bootstraps; n != 1 {
		t.Fatalf("%d bootstraps: the follower should have streamed on", n)
	}
}

// TestFollowerRebootstrapsOnLeaderFork: a leader that went back in
// history — here restored from an image of its data dir taken m records
// ago — re-issues LSNs the follower holds other records under. Its
// X-Kcore-LSN below the follower's cursor is divergence: the follower
// rebuilds from the leader's checkpoint once and converges, instead of
// skipping the new history as duplicates and serving cores the leader
// never had.
func TestFollowerRebootstrapsOnLeaderFork(t *testing.T) {
	seed := testutil.Seed(t, 909)
	h := startLeader(t, seed)
	f, err := replica.New(replica.Options{Leader: h.srv.URL, ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h.stepUntil(10)
	img := t.TempDir()
	if err := os.CopyFS(img, os.DirFS(h.dir)); err != nil { // every Apply synced: a consistent image
		t.Fatal(err)
	}
	k := h.cs.CurrentLSN()
	h.stepUntil(10)
	waitConverged(t, f, k+10, 10*time.Second)

	h.restart(img)
	if got := h.cs.CurrentLSN(); got != k {
		t.Fatalf("leader restored at LSN %d, want %d", got, k)
	}
	h.stepUntil(3) // LSNs k+1.. are new history
	waitSame(t, h, f)
	if n := f.Report().Replica.Bootstraps; n != 2 {
		t.Fatalf("%d bootstraps, want exactly one rebuild after the fork", n)
	}
	if rs := f.Report().Replica; rs.LeaderLSN != h.cs.CurrentLSN() {
		t.Fatalf("leader_lsn %d after the fork, want the leader's %d", rs.LeaderLSN, h.cs.CurrentLSN())
	}
}
