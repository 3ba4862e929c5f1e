// Package cmdtest smoke-tests the cmd/ binaries end-to-end: each test
// builds the real binary with the Go toolchain, runs it on a small
// generated fixture graph in a temp dir via os/exec, and checks the
// observable behaviour (stdout, output files, HTTP responses).
package cmdtest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	binDir    string
	graphBase string
)

// TestMain builds every exercised binary once and generates the shared
// fixture graph (via the gengraph binary itself, so graph generation is
// part of the end-to-end surface).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kcore-cmdtest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, name := range []string{"gengraph", "coredecomp", "coremaint", "kcorequery", "kcored"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "kcore/cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", name, err, out)
			os.Exit(1)
		}
	}
	graphBase = filepath.Join(dir, "fixture")
	out, err := exec.Command(filepath.Join(binDir, "gengraph"),
		"-family", "social", "-n", "150", "-k", "3", "-seed", "5", "-out", graphBase).CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengraph fixture: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// run executes a built binary and returns its combined output, failing
// the test on a non-zero exit.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestGengraphFamilies(t *testing.T) {
	for _, tc := range []struct {
		family string
		args   []string
	}{
		{"er", []string{"-n", "80", "-m", "300"}},
		{"ba", []string{"-n", "80", "-k", "3"}},
		{"social", []string{"-n", "80", "-k", "3"}},
	} {
		t.Run(tc.family, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "g")
			args := append([]string{"-family", tc.family, "-seed", "2", "-out", out}, tc.args...)
			got := run(t, "gengraph", args...)
			if !strings.Contains(got, "wrote "+out) {
				t.Fatalf("gengraph output %q lacks confirmation", got)
			}
			if _, err := os.Stat(out + ".meta"); err != nil {
				t.Fatalf("graph not written: %v", err)
			}
		})
	}
}

func TestCoredecompAlgorithmsAgree(t *testing.T) {
	kmaxRe := regexp.MustCompile(`kmax \(degeneracy\): (\d+)`)
	var want string
	for _, algo := range []string{"star", "plus", "basic", "imcore", "emcore"} {
		t.Run(algo, func(t *testing.T) {
			coresOut := filepath.Join(t.TempDir(), "cores.txt")
			out := run(t, "coredecomp", "-graph", graphBase, "-algo", algo, "-cores", coresOut)
			m := kmaxRe.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no kmax in output:\n%s", out)
			}
			if want == "" {
				want = m[1]
			} else if m[1] != want {
				t.Fatalf("%s reports kmax %s, others %s", algo, m[1], want)
			}
			data, err := os.ReadFile(coresOut)
			if err != nil {
				t.Fatal(err)
			}
			if lines := bytes.Count(data, []byte("\n")); lines != 150 {
				t.Fatalf("cores file has %d lines, want 150", lines)
			}
		})
	}
}

func TestCoremaintRoundTrip(t *testing.T) {
	out := run(t, "coremaint", "-graph", graphBase, "-edges", "8", "-insert", "star")
	for _, want := range []string{"selected 8 random edges", "SemiDelete*", "SemiInsert*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("coremaint output lacks %q:\n%s", want, out)
		}
	}
}

// TestKcorequeryCore also gives -snapshot a torn KCSNAP01 file (the
// format Save wrote before): kcorequery names why it refused the file,
// replaces it, and loads the replacement on the next run.
func TestKcorequeryCore(t *testing.T) {
	out := run(t, "kcorequery", "-graph", graphBase, "core", "0")
	if !strings.Contains(out, "core(0)") {
		t.Fatalf("kcorequery output %q lacks core(0)", out)
	}
	snap := filepath.Join(t.TempDir(), "fixture.snap")
	if err := os.WriteFile(snap, []byte("KCSNAP01"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"not using snapshot " + snap + ": ", "loaded decomposition"} {
		if out := run(t, "kcorequery", "-graph", graphBase, "-snapshot", snap, "core", "0"); !strings.Contains(out, want) {
			t.Fatalf("kcorequery -snapshot output lacks %q:\n%s", want, out)
		}
	}
}

// startKcored launches the daemon on an ephemeral port and returns its
// base URL. The process is killed at test cleanup. Extra arguments are
// appended to the command line.
func startKcored(t *testing.T, extraArgs ...string) string {
	t.Helper()
	url, _, _ := startKcoredProc(t, append([]string{"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms"}, extraArgs...)...)
	return url
}

// stopKcored sends the daemon SIGTERM and fails t unless it exits
// cleanly.
func stopKcored(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("kcored did not exit cleanly on SIGTERM: %v", err)
	}
}

// getJSON decodes a JSON response, asserting the HTTP status.
func getJSON(t *testing.T, wantStatus int, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

func postJSON(t *testing.T, wantStatus int, url string, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
}

func TestKcoredServesQueriesAndUpdates(t *testing.T) {
	base := startKcored(t)

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, http.StatusOK, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}

	var core struct {
		Node  uint32 `json:"node"`
		Core  uint32 `json:"core"`
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, http.StatusOK, base+"/core?v=0", &core)

	var deg struct {
		Degeneracy uint32 `json:"degeneracy"`
		Nodes      uint32 `json:"nodes"`
	}
	getJSON(t, http.StatusOK, base+"/degeneracy", &deg)
	if deg.Nodes != 150 {
		t.Fatalf("degeneracy reports %d nodes, want 150", deg.Nodes)
	}
	if core.Core > deg.Degeneracy {
		t.Fatalf("core(0) = %d exceeds degeneracy %d", core.Core, deg.Degeneracy)
	}

	var kc struct {
		Count int      `json:"count"`
		Nodes []uint32 `json:"nodes"`
	}
	getJSON(t, http.StatusOK, base+"/kcore?k=1&limit=5", &kc)
	if kc.Count == 0 || len(kc.Nodes) > 5 {
		t.Fatalf("kcore count=%d nodes=%d, want count>0 and <=5 nodes", kc.Count, len(kc.Nodes))
	}

	// Toggle an edge synchronously across two waits (a delete+re-insert
	// pair in one request would annihilate in the coalescer and publish
	// nothing) and watch the epoch advance each time.
	var upd struct {
		Enqueued int    `json:"enqueued"`
		Epoch    uint64 `json:"epoch"`
	}
	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)
	if upd.Enqueued != 1 {
		t.Fatalf("enqueued = %d, want 1", upd.Enqueued)
	}
	if upd.Epoch == 0 {
		t.Fatal("epoch did not advance past initial decomposition")
	}
	prevEpoch := upd.Epoch
	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"insert","u":0,"v":1}]}`, &upd)
	if upd.Epoch <= prevEpoch {
		t.Fatalf("epoch = %d after re-insert, want > %d", upd.Epoch, prevEpoch)
	}

	var st struct {
		Serve struct {
			Enqueued int64 `json:"enqueued"`
			Applied  int64 `json:"applied"`
		} `json:"serve"`
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, http.StatusOK, base+"/stats", &st)
	if st.Serve.Enqueued != 2 || st.Serve.Applied != 2 {
		t.Fatalf("stats enqueued/applied = %d/%d, want 2/2", st.Serve.Enqueued, st.Serve.Applied)
	}

	// Error paths: missing parameter and malformed body.
	var errResp struct {
		Error string `json:"error"`
	}
	getJSON(t, http.StatusBadRequest, base+"/core", &errResp)
	if errResp.Error == "" {
		t.Fatal("missing-parameter error not reported")
	}
	getJSON(t, http.StatusNotFound, base+"/core?v=9999", &errResp)
	postJSON(t, http.StatusBadRequest, base+"/update", `{"updates":[{"op":"upsert","u":0,"v":1}]}`, &errResp)
	if !strings.Contains(errResp.Error, "upsert") {
		t.Fatalf("bad-op error %q does not name the op", errResp.Error)
	}
}

// genFixture generates an extra social graph via the gengraph binary and
// returns its path prefix.
func genFixture(t *testing.T, n int, seed int64) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "extra")
	run(t, "gengraph", "-family", "social",
		"-n", fmt.Sprint(n), "-k", "3", "-seed", fmt.Sprint(seed), "-out", base)
	return base
}

// deleteJSON issues a DELETE and decodes the JSON response.
func deleteJSON(t *testing.T, wantStatus int, url string, out any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("DELETE %s: bad JSON: %v", url, err)
	}
}

// TestKcoredMultiGraph boots kcored with a second graph preloaded via
// -load, exercises the per-graph routes, and runs an admin create/drop
// round-trip against a third graph — two-plus graphs served concurrently
// from one process.
func TestKcoredMultiGraph(t *testing.T) {
	second := genFixture(t, 90, 11)
	base := startKcored(t, "-load", "social="+second)

	// Both graphs are listed and queryable under /g/{name}/...
	var list struct {
		Count  int `json:"count"`
		Graphs []struct {
			Name  string `json:"name"`
			Nodes uint32 `json:"nodes"`
		} `json:"graphs"`
	}
	getJSON(t, http.StatusOK, base+"/graphs", &list)
	if list.Count != 2 {
		t.Fatalf("graphs count = %d, want 2", list.Count)
	}
	var core, legacy struct {
		Core  uint32 `json:"core"`
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, http.StatusOK, base+"/g/social/core?v=0", &core)
	getJSON(t, http.StatusOK, base+"/g/default/core?v=0", &core)
	getJSON(t, http.StatusOK, base+"/core?v=0", &legacy)
	if core != legacy {
		t.Fatalf("/g/default/core %+v != /core %+v", core, legacy)
	}

	// Update the second graph; the default graph's epoch must not move.
	// (One net op per request — an opposing pair would annihilate.)
	var upd struct {
		Enqueued int `json:"enqueued"`
	}
	postJSON(t, http.StatusOK, base+"/g/social/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)
	postJSON(t, http.StatusOK, base+"/g/social/update?wait=1",
		`{"updates":[{"op":"insert","u":0,"v":1}]}`, &upd)
	var st struct {
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, http.StatusOK, base+"/g/social/stats", &st)
	if st.Epoch == 0 {
		t.Fatal("social graph epoch did not advance")
	}
	getJSON(t, http.StatusOK, base+"/g/default/stats", &st)
	if st.Epoch != 0 {
		t.Fatalf("default graph epoch = %d, want 0 (isolation broken)", st.Epoch)
	}

	// A k-core's count is its size in the degeneracy profile.
	var kc struct {
		Count int64 `json:"count"`
	}
	var deg struct {
		Sizes []int64 `json:"core_sizes"`
	}
	getJSON(t, http.StatusOK, base+"/kcore?k=2&limit=1", &kc)
	getJSON(t, http.StatusOK, base+"/degeneracy", &deg)
	if len(deg.Sizes) < 3 || kc.Count != deg.Sizes[2] {
		t.Fatalf("/kcore?k=2 count = %d, core_sizes = %v", kc.Count, deg.Sizes)
	}

	// Admin round-trip: create a third graph, query it, drop it.
	third := genFixture(t, 70, 13)
	var created struct {
		Name  string `json:"name"`
		Nodes uint32 `json:"nodes"`
	}
	postJSON(t, http.StatusCreated, base+"/graphs",
		fmt.Sprintf(`{"name":"scratch","path":%q}`, third), &created)
	if created.Nodes != 70 {
		t.Fatalf("created = %+v", created)
	}
	getJSON(t, http.StatusOK, base+"/g/scratch/degeneracy", &st)
	var dropped struct {
		Dropped string `json:"dropped"`
	}
	deleteJSON(t, http.StatusOK, base+"/graphs/scratch", &dropped)
	var errResp struct {
		Error string `json:"error"`
	}
	getJSON(t, http.StatusNotFound, base+"/g/scratch/core?v=0", &errResp)
	if !strings.Contains(errResp.Error, "scratch") {
		t.Fatalf("post-drop error %q does not name the graph", errResp.Error)
	}
	getJSON(t, http.StatusOK, base+"/graphs", &list)
	if list.Count != 2 {
		t.Fatalf("graphs count after drop = %d, want 2", list.Count)
	}
}

// TestKcoredPprofOptIn checks the profiling endpoints: mounted only when
// -pprof is passed, absent (404) by default.
func TestKcoredPprofOptIn(t *testing.T) {
	withFlag := startKcored(t, "-pprof")
	resp, err := http.Get(withFlag + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with -pprof = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles: %.120s", body)
	}

	without := startKcored(t)
	resp, err = http.Get(without + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}
}

// TestKcoredRetiredFlags: the flags of retired subsystems (sharding, PR
// 17; the region-parallel flush, PR 18) are gone from the flag set, so
// the flag package refuses them with exit status 2 and the usage text
// before anything is opened.
func TestKcoredRetiredFlags(t *testing.T) {
	for _, flag := range []string{"-shards", "-partitioner", "-apply-workers"} {
		t.Run(flag, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(binDir, "kcored"), "-graph", graphBase, "-addr", "127.0.0.1:0", flag, "2").CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("kcored %s 2: %v, want exit status 2\n%s", flag, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined: "+flag) {
				t.Fatalf("kcored %s 2 printed %q, want the flag package's refusal", flag, out)
			}
		})
	}
}

// startKcoredProc is startKcored with the full argument list under the
// test's control: it returns the base URL, the process handle (so the
// test can signal it and wait for a graceful exit), and every stdout
// line printed before the listen announcement (the recovery summary).
func startKcoredProc(t *testing.T, args ...string) (string, *exec.Cmd, []string) {
	t.Helper()
	return startKcoredProcOnBanner(t, nil, args...)
}

// startKcoredProcOnBanner is startKcoredProc with a hook that runs on
// the goroutine reading the daemon's stdout, the moment the listen
// announcement has been read and before anything else happens — as
// close to "the instant the banner appears" as a harness gets.
func startKcoredProcOnBanner(t *testing.T, onBanner func(*exec.Cmd), args ...string) (string, *exec.Cmd, []string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "kcored"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Harmless when the test already waited for a graceful exit.
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	})
	listenRe := regexp.MustCompile(`listening on (http://[^ ]+)`)
	type startInfo struct {
		url     string
		startup []string
	}
	ch := make(chan startInfo, 1)
	go func() {
		var info startInfo
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				if onBanner != nil {
					onBanner(cmd)
				}
				info.url = m[1]
				ch <- info
				// Keep draining so the daemon never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
			info.startup = append(info.startup, sc.Text())
		}
		ch <- info
	}()
	select {
	case info := <-ch:
		if info.url == "" {
			t.Fatalf("kcored exited without announcing its address; startup: %q", info.startup)
		}
		return info.url, cmd, info.startup
	case <-time.After(30 * time.Second):
		t.Fatal("kcored did not start within 30s")
	}
	return "", nil, nil
}

// TestKcoredDataDirRoundTrip is the durability smoke test: create a
// graph under -data-dir, mutate it, SIGTERM the daemon (graceful final
// checkpoint), restart on the same -data-dir, and check the recovered
// graph serves the same cores with the write still counted in its LSN.
func TestKcoredDataDirRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", dataDir, "-fsync", "always"}
	base, cmd, _ := startKcoredProc(t, args...)

	var upd struct {
		Enqueued int    `json:"enqueued"`
		Epoch    uint64 `json:"epoch"`
	}
	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)
	if upd.Enqueued != 1 || upd.Epoch == 0 {
		t.Fatalf("update = %+v", upd)
	}
	var before [24]uint32
	var core struct {
		Core uint32 `json:"core"`
	}
	for v := range before {
		getJSON(t, http.StatusOK, fmt.Sprintf("%s/core?v=%d", base, v), &core)
		before[v] = core.Core
	}

	stopKcored(t, cmd)

	// Restart with the same -data-dir; -graph is also passed and must
	// lose to the recovered graph (no fresh decomposition of the base).
	base2, cmd2, startup := startKcoredProc(t, args...)
	summaryRe := regexp.MustCompile(`recovered 1 graphs?, 0 replayed records`)
	var summarized bool
	for _, line := range startup {
		if summaryRe.MatchString(line) {
			summarized = true
		}
		if strings.Contains(line, "decomposing") {
			t.Fatalf("restart re-decomposed the base graph instead of recovering: %q", line)
		}
	}
	if !summarized {
		t.Fatalf("no recovery summary in startup lines: %q", startup)
	}

	for v := range before {
		getJSON(t, http.StatusOK, fmt.Sprintf("%s/core?v=%d", base2, v), &core)
		if core.Core != before[v] {
			t.Fatalf("core(%d) = %d after restart, want %d", v, core.Core, before[v])
		}
	}
	var st struct {
		Durability *struct {
			LSN      uint64 `json:"lsn"`
			Degraded bool   `json:"degraded"`
			Replayed int64  `json:"replayed_records"`
		} `json:"durability"`
	}
	getJSON(t, http.StatusOK, base2+"/g/default/stats", &st)
	if st.Durability == nil {
		t.Fatal("recovered graph stats lack the durability block")
	}
	if st.Durability.LSN != 1 || st.Durability.Degraded {
		t.Fatalf("durability after restart = %+v, want lsn 1, not degraded", *st.Durability)
	}

	// The recovered graph accepts writes: re-insert the deleted edge.
	postJSON(t, http.StatusOK, base2+"/update?wait=1",
		`{"updates":[{"op":"insert","u":0,"v":1}]}`, &upd)
	if upd.Enqueued != 1 {
		t.Fatalf("re-insert after recovery = %+v", upd)
	}
	stopKcored(t, cmd2)
}

// TestKcoredServesRecoveredGraphsWithoutDefault: a data dir whose only
// graph was created through POST /graphs (the default graph dropped, its
// directory with it) restarts without -graph. The recovered graph is
// served under its name with its acked write, and the single-graph
// routes answer 404, as they do while no graph is named default.
func TestKcoredServesRecoveredGraphsWithoutDefault(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-flush", "1ms", "-data-dir", dataDir, "-fsync", "always"}
	base, cmd, _ := startKcoredProc(t, append([]string{"-graph", graphBase}, args...)...)
	var resp struct {
		Error      string `json:"error"`
		Durability struct {
			LSN uint64 `json:"lsn"`
		} `json:"durability"`
	}
	postJSON(t, http.StatusCreated, base+"/graphs", fmt.Sprintf(`{"name":"social","path":%q}`, genFixture(t, 90, 11)), &resp)
	deleteJSON(t, http.StatusOK, base+"/graphs/default", &resp)
	postJSON(t, http.StatusOK, base+"/g/social/update?wait=1", `{"updates":[{"op":"delete","u":0,"v":1}]}`, &resp)
	stopKcored(t, cmd)

	base, _, _ = startKcoredProc(t, args...)
	getJSON(t, http.StatusOK, base+"/g/social/stats", &resp)
	if resp.Durability.LSN != 1 {
		t.Fatalf("recovered graph at lsn %d, want 1", resp.Durability.LSN)
	}
	getJSON(t, http.StatusNotFound, base+"/core?v=0", &resp)
}

// TestKcoredKeepsUnrecoveredGraph: a restart that cannot list a graph's
// checkpoints (here ENOTDIR: ckpt is a regular file, the checkpoints
// moved aside) must not answer by re-creating the graph from -graph over
// its durable directory — that used to serve the base without the acked
// update and leave one new checkpoint where two good ones and the log
// had been. kcored exits 1 naming the directory, which it leaves as it
// found it; with the directory repaired the acked state recovers.
func TestKcoredKeepsUnrecoveredGraph(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", dataDir, "-fsync", "always"}
	base, cmd, _ := startKcoredProc(t, args...)
	var upd struct {
		Enqueued int `json:"enqueued"`
	}
	postJSON(t, http.StatusOK, base+"/update?wait=1", `{"updates":[{"op":"delete","u":0,"v":1}]}`, &upd)
	if err := cmd.Process.Kill(); err != nil { // no final checkpoint: the delete lives in the log
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed

	graphDir := filepath.Join(dataDir, "default")
	ckpt, aside := filepath.Join(graphDir, "ckpt"), filepath.Join(graphDir, "ckpt.aside")
	if err := os.Rename(ckpt, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var names []string
		err := filepath.Walk(graphDir, func(path string, info os.FileInfo, err error) error {
			if err == nil {
				names = append(names, fmt.Sprintf("%s %d", path, info.Size()))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := listing()

	// Bounded: a kcored that re-creates the graph comes up and serves.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(binDir, "kcored"), args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("kcored over an unlistable ckpt: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "refusing to replace") || !strings.Contains(string(out), graphDir) {
		t.Fatalf("kcored printed %q, want a refusal naming %s", out, graphDir)
	}
	if after := listing(); !slices.Equal(before, after) {
		t.Fatalf("the graph directory changed:\nbefore %q\nafter  %q", before, after)
	}

	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, ckpt); err != nil {
		t.Fatal(err)
	}
	_, _, startup := startKcoredProc(t, args...)
	if !slices.ContainsFunc(startup, func(line string) bool {
		return strings.Contains(line, "recovered 1 graphs, 1 replayed records")
	}) {
		t.Fatalf("no recovery of the acked update in startup lines: %q", startup)
	}
}

// TestKcoredDurableDiskStats drives the process in the configuration
// whose memory the durable disk backend exists for (-backend disk
// -data-dir) and reads how its checkpoints are made off /stats: they
// stream the partition files and say what that cost, none of it charged
// to the engine's io block — and so do those of a mem graph in the same
// process, from its base tables. Then SIGKILL and restart: what the
// streamed checkpoints and the WAL hold recovers behind the same
// backends again.
func TestKcoredDurableDiskStats(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-backend", "disk", "-cache-blocks", "8", "-data-dir", dataDir, "-fsync", "always"}
	base, cmd, _ := startKcoredProc(t, args...)

	type graphStats struct {
		Backend string `json:"backend"`
		Edges   int64  `json:"edges"`
		IO      struct {
			Reads int64
		} `json:"io"`
		Durability *struct {
			LSN                  uint64  `json:"lsn"`
			Checkpoints          int64   `json:"checkpoints"`
			CheckpointBlockReads int64   `json:"checkpoint_block_reads"`
			CheckpointLastMs     float64 `json:"checkpoint_last_ms"`
		} `json:"durability"`
	}
	var st graphStats
	getJSON(t, http.StatusOK, base+"/stats", &st)
	d := st.Durability
	if st.Backend != "disk" || d == nil {
		t.Fatalf("stats = %+v, want a disk graph with a durability block", st)
	}
	if d.Checkpoints != 1 || d.CheckpointBlockReads == 0 || d.CheckpointLastMs <= 0 {
		t.Fatalf("after the opening checkpoint: %+v; want a streamed checkpoint with its block reads and duration", *d)
	}
	opening := d.CheckpointBlockReads

	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, new(struct{}))
	getJSON(t, http.StatusOK, base+"/stats", &st)
	ioBefore := st.IO.Reads
	postJSON(t, http.StatusOK, base+"/g/default/checkpoint", "", new(struct{}))
	getJSON(t, http.StatusOK, base+"/stats", &st)
	if d := st.Durability; d.Checkpoints != 2 || d.CheckpointBlockReads <= opening {
		t.Fatalf("after a forced checkpoint: %+v, want a second one that read more blocks", *d)
	}
	if st.IO.Reads != ioBefore {
		t.Fatalf("the checkpoint moved the engine's io.Reads from %d to %d", ioBefore, st.IO.Reads)
	}

	// A mem graph's opening checkpoint streamed its base tables the same way.
	postJSON(t, http.StatusCreated, base+"/graphs", fmt.Sprintf(`{"name":"m","path":%q}`, graphBase), new(struct{}))
	var mem graphStats
	getJSON(t, http.StatusOK, base+"/g/m/stats", &mem)
	if d := mem.Durability; mem.Backend != "mem" || d == nil || d.Checkpoints != 1 || d.CheckpointBlockReads == 0 || mem.IO.Reads == 0 {
		t.Fatalf("mem graph stats = %+v, want a streamed opening checkpoint next to the decomposition's own reads", mem)
	}

	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":2}]}`, new(struct{}))
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed

	base2, _, startup := startKcoredProc(t, args...)
	if joined := strings.Join(startup, "\n"); !strings.Contains(joined, "recovered 2 graphs, 1 replayed records") {
		t.Fatalf("restart after SIGKILL: %q, want both graphs back and the one record past the checkpoint replayed", startup)
	}
	getJSON(t, http.StatusOK, base2+"/stats", &st)
	if d := st.Durability; st.Backend != "disk" || d == nil || d.LSN != 2 || d.Checkpoints != 1 {
		t.Fatalf("recovered default graph stats = %+v, want the disk backend at lsn 2 with the checkpoint of its replay", st)
	}
	// Nothing was replayed on m: its newest checkpoint already holds the
	// recovered state, so recovery writes no other.
	getJSON(t, http.StatusOK, base2+"/g/m/stats", &mem)
	if mem.Backend != "mem" || mem.Durability == nil || mem.Durability.Checkpoints != 0 {
		t.Fatalf("recovered mem graph stats = %+v, want the mem backend with no post-recovery checkpoint", mem)
	}
}

// newestCheckpointSeq reports the highest committed checkpoint sequence
// number under a durable graph directory (0 when there is none).
func newestCheckpointSeq(t *testing.T, graphDir string) uint64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(graphDir, "ckpt"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var newest uint64
	for _, e := range ents {
		if seq, err := strconv.ParseUint(e.Name(), 16, 64); err == nil && seq > newest {
			newest = seq
		}
	}
	return newest
}

// TestKcoredSignalAtBanner pins the shutdown contract at its earliest
// point: the listen banner tells a harness the daemon may be signalled,
// so a SIGTERM sent the instant the banner appears must take the
// graceful path — exit status 0, and no checkpoint written over the
// state the newest one holds — never the default action that kills the
// process with no drain. (The banner
// used to be printed before signal.Notify ran; that window is what made
// TestKcoredStaleBaseRedecomposed fail with "signal: terminated".)
// Several rounds, because the window was microseconds wide.
func TestKcoredSignalAtBanner(t *testing.T) {
	dataDir := t.TempDir()
	graphDir := filepath.Join(dataDir, "default")
	args := []string{"-graph", graphBase, "-addr", "127.0.0.1:0", "-flush", "1ms",
		"-data-dir", dataDir, "-fsync", "always"}

	// Some acked state for the final checkpoints to carry.
	base, cmd, _ := startKcoredProc(t, args...)
	postJSON(t, http.StatusOK, base+"/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, new(struct{}))
	stopKcored(t, cmd)

	sigterm := func(cmd *exec.Cmd) { cmd.Process.Signal(syscall.SIGTERM) } //nolint:errcheck // a failed send shows as a hung Wait
	for round := 0; round < 8; round++ {
		before := newestCheckpointSeq(t, graphDir)
		_, cmd, startup := startKcoredProcOnBanner(t, sigterm, args...)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: SIGTERM at the banner killed kcored instead of shutting it down: %v", round, err)
		}
		if joined := strings.Join(startup, "\n"); !strings.Contains(joined, "recovered 1 graphs") {
			t.Fatalf("round %d: the previous round left nothing recoverable: %q", round, startup)
		}
		// Recovery and the graceful shutdown both checkpoint the LSN the
		// newest checkpoint already holds, so neither writes one.
		if after := newestCheckpointSeq(t, graphDir); after != before {
			t.Fatalf("round %d: newest checkpoint went %d -> %d, want no new one at an unchanged LSN", round, before, after)
		}
	}

	// What the last final checkpoint holds is the acked state.
	base, _, _ = startKcoredProc(t, args...)
	var st struct {
		Durability *struct {
			LSN      uint64 `json:"lsn"`
			Degraded bool   `json:"degraded"`
		} `json:"durability"`
	}
	getJSON(t, http.StatusOK, base+"/stats", &st)
	if st.Durability == nil || st.Durability.LSN != 1 || st.Durability.Degraded {
		t.Fatalf("durability after the signalled rounds = %+v, want lsn 1, not degraded", st.Durability)
	}
}
