package cmdtest

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// replicaStats is the replica block of a follower's /stats response.
type replicaStats struct {
	AppliedLSN uint64 `json:"applied_lsn"`
	LeaderLSN  uint64 `json:"leader_lsn"`
	Bootstraps int64  `json:"bootstraps"`
	Records    int64  `json:"records_applied"`
}

// followerStats fetches /stats from a follower and returns its replica
// block, failing the test if the block is absent.
func followerStats(t *testing.T, base string) replicaStats {
	t.Helper()
	var st struct {
		Replica *replicaStats `json:"replica"`
	}
	getJSON(t, http.StatusOK, base+"/stats", &st)
	if st.Replica == nil {
		t.Fatal("follower /stats lacks the replica block")
	}
	return *st.Replica
}

// followerCacheBlocks reports the frame budget in a follower's /stats
// disk block, -1 when it has none.
func followerCacheBlocks(t *testing.T, base string) int {
	t.Helper()
	var st struct {
		Backend string `json:"backend"`
		Disk    *struct {
			CacheBlocks int `json:"cache_blocks"`
		} `json:"disk"`
	}
	getJSON(t, http.StatusOK, base+"/stats", &st)
	if st.Backend != "follower" {
		t.Fatalf("follower /stats is labelled %q", st.Backend)
	}
	if st.Disk == nil {
		return -1
	}
	return st.Disk.CacheBlocks
}

// waitFollowerLSN polls a follower's /stats until its apply cursor
// reaches lsn.
func waitFollowerLSN(t *testing.T, base string, lsn uint64, within time.Duration) replicaStats {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		rs := followerStats(t, base)
		if rs.AppliedLSN >= lsn {
			return rs
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at applied_lsn %d, want >= %d", rs.AppliedLSN, lsn)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// coreVec reads core numbers for the first n nodes.
func coreVec(t *testing.T, base string, n int) []uint32 {
	t.Helper()
	out := make([]uint32, n)
	var core struct {
		Core uint32 `json:"core"`
	}
	for v := 0; v < n; v++ {
		getJSON(t, http.StatusOK, fmt.Sprintf("%s/core?v=%d", base, v), &core)
		out[v] = core.Core
	}
	return out
}

// TestKcoredFollowerEndToEnd is the replication smoke test over real
// processes: a durable leader and a -follow follower. The follower
// bootstraps from the leader's checkpoint, tails its change stream,
// converges to every leader write, refuses local writes, and — killed
// hard mid-stream and restarted on the same directory, this time with
// -cache-blocks 8 — bootstraps again, reconverges, and serves through the
// frames it was given.
func TestKcoredFollowerEndToEnd(t *testing.T) {
	leaderURL, _, _ := startKcoredProc(t,
		"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", t.TempDir(), "-fsync", "always")

	// One applied write before the follower exists: it must arrive via
	// the bootstrap checkpoint or the stream, either way exactly once.
	var upd struct {
		Enqueued int    `json:"enqueued"`
		Epoch    uint64 `json:"epoch"`
	}
	postJSON(t, http.StatusOK, leaderURL+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)

	followDir := t.TempDir()
	followerURL, followerCmd, startup := startKcoredProc(t,
		"-follow", leaderURL, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", followDir)
	if !strings.Contains(strings.Join(startup, "\n"), "following "+leaderURL) {
		t.Fatalf("follower startup does not announce the leader: %q", startup)
	}

	rs := waitFollowerLSN(t, followerURL, 1, 10*time.Second)
	if rs.Bootstraps < 1 {
		t.Fatalf("follower converged without a bootstrap: %+v", rs)
	}
	if n := followerCacheBlocks(t, followerURL); n != 64 {
		t.Fatalf("a follower started without -cache-blocks reads through %d frames (-1: none), want the default 64", n)
	}
	if got, want := coreVec(t, followerURL, 24), coreVec(t, leaderURL, 24); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower cores %v differ from leader %v", got, want)
	}
	resp, err := http.Get(followerURL + "/core?v=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Kcore-Epoch") == "" {
		t.Fatal("follower read lacks the X-Kcore-Epoch header")
	}

	// Local writes are refused as read-only, and reads keep working.
	var refusal struct {
		Error    string `json:"error"`
		ReadOnly bool   `json:"read_only"`
	}
	postJSON(t, http.StatusConflict, followerURL+"/update",
		`{"updates":[{"op":"insert","u":0,"v":1}]}`, &refusal)
	if refusal.Error == "" || !refusal.ReadOnly {
		t.Fatalf("follower write refusal = %+v, want error text and read_only", refusal)
	}

	// A write applied while the follower is connected must arrive over
	// the live stream (records_applied advances, no extra bootstrap).
	postJSON(t, http.StatusOK, leaderURL+"/update?wait=1",
		`{"updates":[{"op":"insert","u":0,"v":1}]}`, &upd)
	rs = waitFollowerLSN(t, followerURL, 2, 10*time.Second)
	if rs.Records < 1 {
		t.Fatalf("follower converged to LSN 2 without stream records: %+v", rs)
	}

	// Kill the follower hard mid-stream (no graceful shutdown), keep
	// writing on the leader, restart on the same directory: it must
	// come back, catch up, and match the leader again.
	if err := followerCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	followerCmd.Wait() //nolint:errcheck // killed: non-zero exit expected
	postJSON(t, http.StatusOK, leaderURL+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)

	followerURL2, _, _ := startKcoredProc(t,
		"-follow", leaderURL, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", followDir, "-cache-blocks", "8")
	waitFollowerLSN(t, followerURL2, 3, 10*time.Second)
	if n := followerCacheBlocks(t, followerURL2); n != 8 {
		t.Fatalf("-follow -cache-blocks 8 serves through %d cache frames (-1: none)", n)
	}
	if got, want := coreVec(t, followerURL2, 24), coreVec(t, leaderURL, 24); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restarted follower cores %v differ from leader %v", got, want)
	}
}

// TestKcoredFollowerFlagConflicts checks the flag validation: -follow
// composes with neither -graph nor -load.
func TestKcoredFollowerFlagConflicts(t *testing.T) {
	out, err := exec.Command(binDir+"/kcored",
		"-follow", "http://127.0.0.1:1", "-graph", graphBase).CombinedOutput()
	if err == nil {
		t.Fatalf("-follow with -graph did not fail:\n%s", out)
	}
	if !strings.Contains(string(out), "-follow") {
		t.Fatalf("conflict error does not mention -follow: %s", out)
	}
}

// TestKcoredStaleBaseRedecomposed is the -load/-graph regression test
// for a recovered graph and its base: recovery wins while the base holds
// the tables the graph was created from, whatever its file times say, and
// once the base holds other tables the daemon drops the recovered state
// and decomposes the new base.
func TestKcoredStaleBaseRedecomposed(t *testing.T) {
	base := genFixture(t, 100, 21)
	dataDir := t.TempDir()
	args := []string{"-graph", base, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", dataDir, "-fsync", "always"}
	stop := func(cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("kcored did not exit cleanly: %v", err)
		}
	}
	var st struct {
		Nodes      uint32 `json:"nodes"`
		Durability *struct {
			LSN uint64 `json:"lsn"`
		} `json:"durability"`
	}

	url1, cmd1, _ := startKcoredProc(t, args...)
	postJSON(t, http.StatusOK, url1+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, new(struct{}))
	stop(cmd1)

	// The same tables with file times past every checkpoint (a touch, a
	// copy without -p): recovery wins and keeps the acked delete.
	future := time.Now().Add(time.Hour)
	for _, ext := range []string{".meta", ".nt", ".et"} {
		if err := os.Chtimes(base+ext, future, future); err != nil {
			t.Fatal(err)
		}
	}
	url2, cmd2, startup := startKcoredProc(t, args...)
	if joined := strings.Join(startup, "\n"); !strings.Contains(joined, "skipping base") {
		t.Fatalf("restart on a touched base did not skip decomposition: %q", startup)
	}
	getJSON(t, http.StatusOK, url2+"/stats", &st)
	if st.Durability == nil || st.Durability.LSN != 1 {
		t.Fatalf("recovered graph durability = %+v, want lsn 1", st.Durability)
	}
	stop(cmd2)

	// The base rebuilt from other edges: the recovered graph goes, and a
	// fresh log starts over the new base's 120 nodes.
	run(t, "gengraph", "-family", "social", "-n", "120", "-k", "3", "-seed", "22", "-out", base)
	url3, _, startup := startKcoredProc(t, args...)
	if joined := strings.Join(startup, "\n"); !strings.Contains(joined, "re-decomposing") {
		t.Fatalf("restart on a rebuilt base did not re-decompose: %q", startup)
	}
	getJSON(t, http.StatusOK, url3+"/stats", &st)
	if st.Durability == nil || st.Durability.LSN != 0 || st.Nodes != 120 {
		t.Fatalf("re-decomposed graph: %d nodes, durability %+v; want the new base's 120 nodes at lsn 0", st.Nodes, st.Durability)
	}
}
