package replica_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kcore/internal/memgraph"
	"kcore/internal/replica"
	"kcore/internal/stats"
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
			h := startLeader(t, seed, 0)
			live := h.ms.Live()
			present := live[0]
			has := make(map[memgraph.Edge]bool, len(live))
			for _, e := range live {
				has[e] = true
			}
			var absent []memgraph.Edge
			for v := uint32(1); len(absent) < 2; v++ {
				if e := (memgraph.Edge{U: 0, V: v}); !has[e] {
					absent = append(absent, e)
				}
			}
			// LSN 1 re-inserts an edge the follower already has (next to a
			// valid insert, or alone); LSN 2 is valid on its own.
			bad := []memgraph.Edge{present}
			if tc.partial {
				bad = append(bad, absent[0])
			}
			frames := wal.AppendRecord(nil, 1, nil, bad)
			frames = wal.AppendRecord(frames, 2, nil, absent[1:])
			srv := poisonedLeader(t, h, frames)

			log := &ackLog{}
			ctr := new(stats.ReplicaCounters)
			f, err := replica.New(replica.Options{
				Leader:       srv.URL,
				Counters:     ctr,
				OnApplied:    log.hook,
				ReconnectMin: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			deadline := time.Now().Add(10 * time.Second)
			for ctr.Bootstraps() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("follower never rebuilt from a checkpoint: bootstraps %d, applied_lsn %d",
						ctr.Bootstraps(), ctr.AppliedLSN())
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
			waitConverged(t, ctr, h.cs.CurrentLSN(), 10*time.Second)
			h.verify(f, log)
		})
	}
}
