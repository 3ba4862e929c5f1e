package httpapi_test

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/httpapi"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/wal"
)

// stubReadOnly wraps a real serving session but refuses writes with a
// configurable error — the shapes the write-refusal table needs
// (replication follower, degraded durable graph) without standing up
// real replication or injecting real damage.
type stubReadOnly struct {
	*engine.Live
	writeErr error
	degraded bool
}

func newStubReadOnly(t *testing.T, writeErr error, degraded bool) *stubReadOnly {
	t.Helper()
	live, err := engine.BringUp(writeGraph(t, 80, 9), kcore.OpenOptions{}, serve.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &stubReadOnly{Live: live, writeErr: writeErr, degraded: degraded}
}

func (s *stubReadOnly) Enqueue(ups ...serve.Update) error { return s.writeErr }
func (s *stubReadOnly) Apply(ups ...serve.Update) error   { return s.writeErr }
func (s *stubReadOnly) Checkpoint() error                 { return s.writeErr }
func (s *stubReadOnly) Report() serve.Report {
	r := s.Live.Report()
	r.Durability, r.Replica = &stats.WalSnapshot{Degraded: s.degraded}, &stats.ReplicaSnapshot{}
	return r
}

// newDurableAPI builds a registry in data-dir mode with one durable
// default graph whose log rolls segments at segmentBytes (0: the
// default).
func newDurableAPI(t *testing.T, segmentBytes int64) (*httptest.Server, *engine.Registry, engine.Engine) {
	t.Helper()
	reg := engine.NewRegistry(&engine.Options{
		Serve: serve.Options{FlushInterval: time.Millisecond},
		Durability: &engine.DurabilityOptions{
			Dir:          t.TempDir(),
			SegmentBytes: segmentBytes,
		},
	})
	t.Cleanup(func() { reg.Close() })
	eng, err := reg.Open("default", writeGraph(t, 120, 11))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(reg, "default"))
	t.Cleanup(ts.Close)
	return ts, reg, eng
}

// TestWriteRefusalSemantics pins the consistent 4xx surface for graphs
// that cannot accept writes: replication followers and degraded
// durable graphs answer 409 with {"error":..., "read_only": true} on
// every mutating route.
func TestWriteRefusalSemantics(t *testing.T) {
	followerErr := fmt.Errorf("replica: refusing local write: %w", engine.ErrReadOnly)
	cases := []struct {
		name     string
		writeErr error
		degraded bool
		method   string
		path     string
		body     string
	}{
		{"follower update", followerErr, false, "POST", "/g/%s/update", `{"updates":[{"op":"insert","u":1,"v":2}]}`},
		{"follower update wait", followerErr, false, "POST", "/g/%s/update?wait=1", `{"updates":[{"op":"delete","u":1,"v":2}]}`},
		{"degraded update", engine.ErrDegraded, true, "POST", "/g/%s/update", `{"updates":[{"op":"insert","u":1,"v":2}]}`},
		{"degraded checkpoint", engine.ErrDegraded, true, "POST", "/g/%s/checkpoint", ""},
	}
	ts, reg := newAPI(t)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := fmt.Sprintf("ro%d", i)
			if err := reg.Register(name, newStubReadOnly(t, tc.writeErr, tc.degraded)); err != nil {
				t.Fatal(err)
			}
			var resp struct {
				Error    string `json:"error"`
				ReadOnly bool   `json:"read_only"`
			}
			do(t, tc.method, ts.URL+fmt.Sprintf(tc.path, name), tc.body, http.StatusConflict, &resp)
			if resp.Error == "" || !resp.ReadOnly {
				t.Fatalf("409 body must carry error and read_only: %+v", resp)
			}
			// Reads on the same graph still work.
			do(t, "GET", ts.URL+fmt.Sprintf("/g/%s/degeneracy", name), "", http.StatusOK, nil)
		})
	}
}

// TestCreateGraphKeepsUnrecoveredGraph: a durable graph whose recovery
// failed for any reason but "nothing was ever made durable" — here its
// ckpt directory is a regular file, so it cannot be listed — is not
// re-created over: POST /graphs under its name answers 409 naming the
// directory (engine.ErrUnrecovered), and every file under it, its acked
// updates included, stays byte for byte. Other names open as usual, and
// so does this one once the directory is moved aside.
func TestCreateGraphKeepsUnrecoveredGraph(t *testing.T) {
	dataDir := t.TempDir()
	base := writeGraph(t, 120, 11)
	opts := &engine.Options{Durability: &engine.DurabilityOptions{Dir: dataDir}}
	reg := engine.NewRegistry(opts)
	eng, err := reg.Open("g", base)
	if err != nil {
		t.Fatal(err)
	}
	driveRecords(t, eng, 3)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(dataDir, "g")
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.Rename(ckpt, ckpt+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tree := func() map[string]string {
		files := make(map[string]string)
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := tree()

	reg2 := engine.NewRegistry(opts)
	t.Cleanup(func() { reg2.Close() })
	rep, err := reg2.Recover()
	if err != nil || len(rep.Graphs) != 1 || rep.Graphs[0].Err == nil {
		t.Fatalf("recovery: %v, %+v; want g reported unrecoverable", err, rep)
	}
	if _, err := reg2.Open("g", base); !errors.Is(err, engine.ErrUnrecovered) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Open over the unrecovered graph: %v, want ErrUnrecovered naming %s", err, dir)
	}
	ts := httptest.NewServer(httpapi.New(reg2, "default"))
	t.Cleanup(ts.Close)
	var e struct {
		Error string `json:"error"`
	}
	do(t, "POST", ts.URL+"/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, base), http.StatusConflict, &e)
	if !strings.Contains(e.Error, "refusing to replace") || !strings.Contains(e.Error, dir) {
		t.Errorf("409 body %q, want the refusal naming %s", e.Error, dir)
	}
	if after := tree(); !maps.Equal(before, after) {
		t.Fatalf("the graph directory changed: %d files before, %d after", len(before), len(after))
	}
	do(t, "POST", ts.URL+"/graphs", fmt.Sprintf(`{"name":"h","path":%q}`, base), http.StatusCreated, nil)

	// Moved aside, as the refusal says, the name starts over in this process.
	if err := os.Rename(dir, dir+".aside"); err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts.URL+"/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, base), http.StatusCreated, nil)
}

// TestChangesRouteStatusCodes pins the non-streaming answers of the
// change-stream route: 400 without a log, 410 with the oldest servable
// cursor once checkpoint retention removed the segment the requested one
// needs, and 400 on a malformed cursor.
func TestChangesRouteStatusCodes(t *testing.T) {
	t.Run("not durable", func(t *testing.T) {
		ts, _ := newAPI(t)
		do(t, "GET", ts.URL+"/g/default/changes", "", http.StatusBadRequest, nil)
	})
	t.Run("bad cursor", func(t *testing.T) {
		ts, _, _ := newDurableAPI(t, 0)
		do(t, "GET", ts.URL+"/g/default/changes?from=banana", "", http.StatusBadRequest, nil)
	})
	t.Run("trimmed cursor answers 410 with oldest", func(t *testing.T) {
		// One record per segment; a second forced checkpoint, records
		// after the first (one at the same LSN writes nothing), makes the
		// first the older retained checkpoint, and every segment at or
		// below its LSN goes.
		ts, _, eng := newDurableAPI(t, 32)
		older := driveRecords(t, eng, 12)
		do(t, "POST", ts.URL+"/g/default/checkpoint", "", http.StatusOK, nil)
		driveRecords(t, eng, older+1)
		do(t, "POST", ts.URL+"/g/default/checkpoint", "", http.StatusOK, nil)
		var resp struct {
			Error     string `json:"error"`
			OldestLSN uint64 `json:"oldest_lsn"`
		}
		do(t, "GET", ts.URL+"/g/default/changes?from=0", "", http.StatusGone, &resp)
		if resp.OldestLSN != older || resp.Error == "" {
			t.Fatalf("410 body must carry the oldest servable cursor %d: %+v", older, resp)
		}
		// That cursor itself streams.
		resp2, err := http.Get(fmt.Sprintf("%s/g/default/changes?from=%d", ts.URL, older))
		if err != nil {
			t.Fatal(err)
		}
		defer resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("the oldest servable cursor answered %d", resp2.StatusCode)
		}
		if rec, err := wal.NewFrameReader(resp2.Body).ReadFrame(); err != nil || rec.LSN != older+1 {
			t.Fatalf("first frame from the oldest cursor = %+v, %v; want record %d", rec, err, older+1)
		}
	})
}

// driveRecords applies toggling delete/insert pairs until at least k
// records are logged, returning the resulting LSN. Each pair
// touches a distinct edge, so at least one of the two applies whether
// or not the fixture already held it.
func driveRecords(t *testing.T, eng engine.Engine, k uint64) uint64 {
	t.Helper()
	cs, ok := eng.(engine.ChangeStreamer)
	if !ok {
		t.Fatal("engine has no change stream")
	}
	u := uint32(0)
	for cs.CurrentLSN() < k {
		if err := eng.Apply(serve.Update{Op: serve.OpDelete, U: u, V: u + 1}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(serve.Update{Op: serve.OpInsert, U: u, V: u + 1}); err != nil {
			t.Fatal(err)
		}
		u += 2
	}
	return cs.CurrentLSN()
}

// TestChangesStreamsAppliedRecords reads real frames off the wire: the
// records streamed for a cursor are exactly the applied batches after
// it, in LSN order, heartbeats interleaving when idle.
func TestChangesStreamsAppliedRecords(t *testing.T) {
	ts, _, eng := newDurableAPI(t, 0)
	last := driveRecords(t, eng, 5)
	resp, err := http.Get(ts.URL + "/g/default/changes?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("content type %q", got)
	}
	if resp.Header.Get("X-Kcore-Epoch") == "" || resp.Header.Get("X-Kcore-LSN") == "" {
		t.Fatal("stream response must carry epoch and LSN headers")
	}
	fr := wal.NewFrameReader(resp.Body)
	next := uint64(1)
	for next <= last {
		frame, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("reading frame %d: %v", next, err)
		}
		if frame.Heartbeat {
			continue
		}
		if frame.LSN != next {
			t.Fatalf("record LSN %d, want %d", frame.LSN, next)
		}
		if len(frame.Deletes)+len(frame.Inserts) == 0 {
			t.Fatalf("record %d carries no edges", frame.LSN)
		}
		next++
	}
}

// TestCheckpointDownloadTar pins the bootstrap download: a tar whose
// entries are exactly the canonical bundle names, with a manifest that
// parses and matches the X-Kcore-Ckpt headers.
func TestCheckpointDownloadTar(t *testing.T) {
	ts, _, _ := newDurableAPI(t, 0)
	resp, err := http.Get(ts.URL + "/g/default/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-tar" {
		t.Fatalf("content type %q", got)
	}
	if resp.Header.Get("X-Kcore-Ckpt-LSN") == "" || resp.Header.Get("X-Kcore-Ckpt-Seq") == "" {
		t.Fatal("checkpoint download must carry LSN and Seq headers")
	}
	allowed := make(map[string]bool)
	for _, name := range wal.CheckpointBundleNames() {
		allowed[name] = true
	}
	var sawManifest bool
	tr := tar.NewReader(resp.Body)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !allowed[hdr.Name] {
			t.Fatalf("unexpected tar entry %q", hdr.Name)
		}
		if hdr.Name == "MANIFEST" {
			sawManifest = true
			data, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wal.ParseManifest(data); err != nil {
				t.Fatalf("downloaded manifest does not parse: %v", err)
			}
		}
	}
	if !sawManifest {
		t.Fatal("download carried no MANIFEST")
	}
	// The non-durable default graph has nothing to download.
	ts2, _ := newAPI(t)
	do(t, "GET", ts2.URL+"/g/default/checkpoint", "", http.StatusBadRequest, nil)
}

// TestEpochHeaderOnReads asserts every graph read response is tagged
// with the epoch it was served from.
func TestEpochHeaderOnReads(t *testing.T) {
	ts, _ := newAPI(t)
	for _, path := range []string{
		"/g/default/core?v=3",
		"/g/default/kcore?k=1",
		"/g/default/degeneracy",
		"/g/default/stats",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // headers are the assertion
		resp.Body.Close()
		if resp.Header.Get("X-Kcore-Epoch") == "" {
			t.Fatalf("%s response missing X-Kcore-Epoch", path)
		}
	}
	// GET /graphs surfaces the follower role for engines reporting a replica block.
	reg2 := engine.NewRegistry(nil)
	t.Cleanup(func() { reg2.Close() })
	if err := reg2.Register("f", newStubReadOnly(t, engine.ErrReadOnly, false)); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(httpapi.New(reg2, "f"))
	t.Cleanup(ts2.Close)
	var listing struct {
		Graphs []struct {
			Name string `json:"name"`
			Role string `json:"role"`
		} `json:"graphs"`
	}
	do(t, "GET", ts2.URL+"/graphs", "", http.StatusOK, &listing)
	if len(listing.Graphs) != 1 || listing.Graphs[0].Role != "follower" {
		t.Fatalf("GET /graphs must report the follower role: %+v", listing.Graphs)
	}
}
