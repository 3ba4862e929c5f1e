package httpapi_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/httpapi"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// writeGraph materialises a deterministic social graph on disk and
// returns its path prefix.
func writeGraph(t testing.TB, n uint32, seed int64) string {
	t.Helper()
	csr := gen.Build(gen.Social(n, 3, 8, 8, seed))
	base := filepath.Join(t.TempDir(), fmt.Sprintf("g%d", seed))
	if err := storage.WriteGraph(faultfs.OS, base, csr, stats.NewIOCounter(0), false); err != nil {
		t.Fatal(err)
	}
	return base
}

// newAPI builds a registry with a default graph plus the named extras
// and wraps it in an httptest server.
func newAPI(t *testing.T, extras ...string) (*httptest.Server, *engine.Registry) {
	t.Helper()
	reg := engine.NewRegistry(nil)
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Open("default", writeGraph(t, 150, 1)); err != nil {
		t.Fatal(err)
	}
	for i, name := range extras {
		if _, err := reg.Open(name, writeGraph(t, 100+20*uint32(i), int64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(httpapi.New(reg, "default"))
	t.Cleanup(ts.Close)
	return ts, reg
}

// do runs one request and decodes the JSON response, asserting status.
func do(t *testing.T, method, url, body string, wantStatus int, out any) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s = %d, want %d\nbody: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, url, err)
		}
	}
}

type errResp struct {
	Error string `json:"error"`
}

func TestLegacyRoutesAliasDefaultGraph(t *testing.T) {
	ts, _ := newAPI(t)

	// The same question through the alias and the explicit route must
	// give the same answer.
	var legacy, scoped struct {
		Node  uint32 `json:"node"`
		Core  uint32 `json:"core"`
		Epoch uint64 `json:"epoch"`
	}
	do(t, "GET", ts.URL+"/core?v=3", "", http.StatusOK, &legacy)
	do(t, "GET", ts.URL+"/g/default/core?v=3", "", http.StatusOK, &scoped)
	if legacy != scoped {
		t.Fatalf("alias mismatch: /core %+v, /g/default/core %+v", legacy, scoped)
	}

	var deg struct {
		Degeneracy uint32  `json:"degeneracy"`
		Nodes      uint32  `json:"nodes"`
		CoreSizes  []int64 `json:"core_sizes"`
	}
	do(t, "GET", ts.URL+"/degeneracy", "", http.StatusOK, &deg)
	if deg.Nodes != 150 || len(deg.CoreSizes) != int(deg.Degeneracy)+1 {
		t.Fatalf("degeneracy = %+v", deg)
	}

	var health struct {
		Status string            `json:"status"`
		Epoch  uint64            `json:"epoch"`
		Graphs map[string]uint64 `json:"graphs"`
	}
	do(t, "GET", ts.URL+"/healthz", "", http.StatusOK, &health)
	if health.Status != "ok" || len(health.Graphs) != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

func TestQueryErrorPaths(t *testing.T) {
	ts, _ := newAPI(t)
	var e errResp

	// Bad/missing k on kcore.
	do(t, "GET", ts.URL+"/kcore", "", http.StatusBadRequest, &e)
	do(t, "GET", ts.URL+"/kcore?k=abc", "", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "k=") {
		t.Fatalf("bad-k error %q does not name the parameter", e.Error)
	}
	do(t, "GET", ts.URL+"/kcore?k=-1", "", http.StatusBadRequest, &e)
	do(t, "GET", ts.URL+"/kcore?k=2&limit=-3", "", http.StatusBadRequest, &e)

	// Out-of-range node.
	do(t, "GET", ts.URL+"/core?v=150", "", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "out of range") {
		t.Fatalf("out-of-range error %q", e.Error)
	}
	do(t, "GET", ts.URL+"/core", "", http.StatusBadRequest, &e)

	// Malformed update bodies.
	do(t, "POST", ts.URL+"/update", `{not json`, http.StatusBadRequest, &e)
	do(t, "POST", ts.URL+"/update", `{}`, http.StatusBadRequest, &e)
	if e.Error != "no updates" {
		t.Fatalf("empty-update error %q", e.Error)
	}
	do(t, "POST", ts.URL+"/update", `{"updates":[{"op":"upsert","u":0,"v":1}]}`, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "upsert") {
		t.Fatalf("bad-op error %q does not name the op", e.Error)
	}

	// Unknown graph name, on every per-graph route.
	for _, route := range []struct{ method, path string }{
		{"GET", "/g/nope/core?v=0"},
		{"GET", "/g/nope/kcore?k=1"},
		{"GET", "/g/nope/degeneracy"},
		{"GET", "/g/nope/stats"},
		{"POST", "/g/nope/update"},
	} {
		body := ""
		if route.method == "POST" {
			body = `{"updates":[{"op":"insert","u":0,"v":1}]}`
		}
		do(t, route.method, ts.URL+route.path, body, http.StatusNotFound, &e)
		if !strings.Contains(e.Error, "nope") {
			t.Fatalf("%s %s: error %q does not name the graph", route.method, route.path, e.Error)
		}
	}
	do(t, "DELETE", ts.URL+"/graphs/nope", "", http.StatusNotFound, &e)
}

func TestKCoreLimitAndMemoizedPath(t *testing.T) {
	ts, reg := newAPI(t)

	var kc struct {
		K     uint32   `json:"k"`
		Count int      `json:"count"`
		Nodes []uint32 `json:"nodes"`
	}
	do(t, "GET", ts.URL+"/kcore?k=1&limit=5", "", http.StatusOK, &kc)
	if kc.Count == 0 || len(kc.Nodes) > 5 {
		t.Fatalf("kcore = %+v", kc)
	}
	// Past the degeneracy: empty list, not null, not an error.
	do(t, "GET", ts.URL+"/kcore?k=4000000000", "", http.StatusOK, &kc)
	if kc.Count != 0 || kc.Nodes == nil {
		t.Fatalf("kcore past kmax = %+v, want empty non-null nodes", kc)
	}

	// Every limit answers a prefix of the unlimited list, with its count.
	eng, _ := reg.Get("default")
	snap := eng.Snapshot()
	for k := uint32(0); k <= snap.Kmax; k++ {
		all := snap.KCoreAt(k)
		for _, limit := range []int{1, len(all) - 1, len(all), len(all) + 1} {
			if limit < 1 {
				continue // limit=0 asks for every member
			}
			do(t, "GET", ts.URL+fmt.Sprintf("/kcore?k=%d&limit=%d", k, limit), "", http.StatusOK, &kc)
			if want := all[:min(limit, len(all))]; kc.Count != len(all) || !slices.Equal(kc.Nodes, want) {
				t.Fatalf("k=%d limit=%d: count %d nodes %v, want %d and %v", k, limit, kc.Count, kc.Nodes, len(all), want)
			}
		}
	}
}

func TestUpdateRoundTripPerGraph(t *testing.T) {
	ts, _ := newAPI(t, "second")

	// A same-edge toggle nets to nothing: the opposing pair annihilates
	// in the coalescer, so no epoch is published and the graph state is
	// unchanged (edge (0,1) exists in the fixture, so the leading insert
	// is rejected as a duplicate).
	var upd struct {
		Enqueued int    `json:"enqueued"`
		Waited   bool   `json:"waited"`
		Epoch    uint64 `json:"epoch"`
	}
	do(t, "POST", ts.URL+"/g/second/update?wait=1",
		`{"updates":[{"op":"insert","u":0,"v":1},{"op":"delete","u":0,"v":1},{"op":"insert","u":0,"v":1}]}`,
		http.StatusOK, &upd)
	if upd.Enqueued != 3 || !upd.Waited || upd.Epoch != 0 {
		t.Fatalf("update = %+v, want all annihilated at epoch 0", upd)
	}

	// A net change on the second graph publishes a new epoch there; the
	// default graph's does not move.
	do(t, "POST", ts.URL+"/g/second/update?wait=1",
		`{"updates":[{"op":"delete","u":0,"v":1}]}`, http.StatusOK, &upd)
	if upd.Enqueued != 1 || !upd.Waited || upd.Epoch == 0 {
		t.Fatalf("update = %+v, want epoch advanced", upd)
	}

	var st struct {
		Serve struct {
			Enqueued    int64 `json:"enqueued"`
			Annihilated int64 `json:"annihilated_updates"`
		} `json:"serve"`
		Epoch uint64 `json:"epoch"`
	}
	do(t, "GET", ts.URL+"/g/second/stats", "", http.StatusOK, &st)
	if st.Serve.Enqueued != 4 {
		t.Fatalf("second graph enqueued = %d, want 4", st.Serve.Enqueued)
	}
	if st.Serve.Annihilated != 2 {
		t.Fatalf("second graph annihilated = %d, want 2", st.Serve.Annihilated)
	}
	do(t, "GET", ts.URL+"/g/default/stats", "", http.StatusOK, &st)
	if st.Serve.Enqueued != 0 || st.Epoch != 0 {
		t.Fatalf("default graph moved: %+v (counters not per-graph?)", st)
	}

	// Async path returns 202.
	do(t, "POST", ts.URL+"/update", `{"updates":[{"op":"delete","u":0,"v":1}]}`,
		http.StatusAccepted, &upd)
	if upd.Waited {
		t.Fatal("async update reported waited")
	}
}

func TestAdminCreateListDrop(t *testing.T) {
	ts, _ := newAPI(t)
	base := writeGraph(t, 90, 77)

	var list struct {
		Count   int    `json:"count"`
		Default string `json:"default"`
		Graphs  []struct {
			Name  string `json:"name"`
			Nodes uint32 `json:"nodes"`
		} `json:"graphs"`
	}
	do(t, "GET", ts.URL+"/graphs", "", http.StatusOK, &list)
	if list.Count != 1 || list.Default != "default" {
		t.Fatalf("initial list = %+v", list)
	}

	var created struct {
		Name  string `json:"name"`
		Nodes uint32 `json:"nodes"`
		Kmax  uint32 `json:"kmax"`
	}
	body := fmt.Sprintf(`{"name":"scratch","path":%q}`, base)
	do(t, "POST", ts.URL+"/graphs", body, http.StatusCreated, &created)
	if created.Name != "scratch" || created.Nodes != 90 {
		t.Fatalf("created = %+v", created)
	}

	// The new graph serves immediately.
	var core struct {
		Core uint32 `json:"core"`
	}
	do(t, "GET", ts.URL+"/g/scratch/core?v=0", "", http.StatusOK, &core)

	do(t, "GET", ts.URL+"/graphs", "", http.StatusOK, &list)
	if list.Count != 2 || list.Graphs[1].Name != "scratch" || list.Graphs[1].Nodes != 90 {
		t.Fatalf("list after create = %+v", list)
	}

	// Create error paths.
	var e errResp
	do(t, "POST", ts.URL+"/graphs", body, http.StatusConflict, &e)
	do(t, "POST", ts.URL+"/graphs", `{"name":"scratch"}`, http.StatusBadRequest, &e)
	do(t, "POST", ts.URL+"/graphs", `{not json`, http.StatusBadRequest, &e)
	do(t, "POST", ts.URL+"/graphs", `{"name":"bad/name","path":"/x"}`, http.StatusBadRequest, &e)
	do(t, "POST", ts.URL+"/graphs", fmt.Sprintf(`{"name":"missing","path":%q}`, base+"-nope"),
		http.StatusUnprocessableEntity, &e)
	// Options of the retired sharded engine are refused by name, never
	// silently dropped.
	for _, tc := range []struct{ field, want string }{
		{`"shards":2`, `"shards"`},
		{`"partitioner":"ldg"`, `"partitioner"`},
		{`"backend":"sharded"`, "want mem or disk"},
	} {
		do(t, "POST", ts.URL+"/graphs", fmt.Sprintf(`{"name":"retired","path":%q,%s}`, base, tc.field),
			http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, tc.want) {
			t.Fatalf("create with %s: error %q does not mention %s", tc.field, e.Error, tc.want)
		}
	}

	// Drop round-trip: gone from routes and from the listing.
	var dropped struct {
		Dropped string `json:"dropped"`
	}
	do(t, "DELETE", ts.URL+"/graphs/scratch", "", http.StatusOK, &dropped)
	if dropped.Dropped != "scratch" {
		t.Fatalf("dropped = %+v", dropped)
	}
	do(t, "GET", ts.URL+"/g/scratch/core?v=0", "", http.StatusNotFound, &e)
	do(t, "GET", ts.URL+"/graphs", "", http.StatusOK, &list)
	if list.Count != 1 {
		t.Fatalf("list after drop = %+v", list)
	}
	// The name is reusable.
	do(t, "POST", ts.URL+"/graphs", body, http.StatusCreated, &created)
}

// TestTwoGraphsServeConcurrently drives mixed read/update traffic at two
// graphs from many goroutines through one server — the multi-graph
// acceptance path.
func TestTwoGraphsServeConcurrently(t *testing.T) {
	ts, reg := newAPI(t, "beta")

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "default"
			if w%2 == 1 {
				name = "beta"
			}
			u := uint32(2 * w)
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + fmt.Sprintf("/g/%s/kcore?k=2&limit=3", name))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: kcore = %d", w, resp.StatusCode)
					return
				}
				body := fmt.Sprintf(`{"updates":[{"op":"delete","u":%d,"v":%d},{"op":"insert","u":%d,"v":%d}]}`,
					u, u+1, u, u+1)
				pr, err := http.Post(ts.URL+fmt.Sprintf("/g/%s/update?wait=1", name),
					"application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, pr.Body) //nolint:errcheck
				pr.Body.Close()
				if pr.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: update = %d", w, pr.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Both graphs made progress, independently.
	for _, name := range []string{"default", "beta"} {
		eng, ok := reg.Get(name)
		if !ok {
			t.Fatalf("graph %s missing", name)
		}
		if eng.Snapshot().Seq == 0 {
			t.Fatalf("graph %s never advanced", name)
		}
		if st := eng.Report().Serve; st.Enqueued != 4*25*2 {
			t.Fatalf("graph %s enqueued = %d, want 200", name, st.Enqueued)
		}
	}
}

// TestOversizedBodyAnswers413: a body past the 4 MiB bound is refused
// with 413 on both routes that decode one, and nothing of it takes
// effect.
func TestOversizedBodyAnswers413(t *testing.T) {
	ts, reg := newAPI(t)
	const bound = 4 << 20
	var e errResp

	t.Run("update", func(t *testing.T) {
		one := `{"op":"insert","u":0,"v":1},`
		body := `{"updates":[` + strings.Repeat(one, bound/len(one)+1) + `{"op":"insert","u":0,"v":1}]}`
		do(t, "POST", ts.URL+"/update?wait=1", body, http.StatusRequestEntityTooLarge, &e)
		eng, _ := reg.Get("default")
		if st := eng.Report().Serve; st.Enqueued != 0 {
			t.Fatalf("oversized update body enqueued %d updates", st.Enqueued)
		}
	})
	t.Run("graphs", func(t *testing.T) {
		body := `{"name":"big","path":"` + strings.Repeat("x", bound) + `"}`
		do(t, "POST", ts.URL+"/graphs", body, http.StatusRequestEntityTooLarge, &e)
		if _, ok := reg.Get("big"); ok {
			t.Fatal("oversized create body registered a graph")
		}
	})
}
