package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/serve"
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

// TestBackendAliasesResolveToFrames: -cache-blocks is the one knob and
// -backend an alias for it, resolved as old command lines and CONFIG
// files meant it: mem is the default frames whatever count is given,
// disk without a count is 1,024, a bare count is that count, and an
// unknown name is refused.
func TestBackendAliasesResolveToFrames(t *testing.T) {
	for _, tc := range []struct {
		c      engine.BackendConfig
		frames int
	}{
		{engine.BackendConfig{}, 0},
		{engine.BackendConfig{CacheBlocks: 8}, 8},
		{engine.BackendConfig{Backend: engine.BackendMem, CacheBlocks: 8}, 0},
		{engine.BackendConfig{Backend: engine.BackendDisk}, 1024},
		{engine.BackendConfig{Backend: engine.BackendDisk, CacheBlocks: 8}, 8},
	} {
		if oo, err := tc.c.OpenOptions(kcore.OpenOptions{}); err != nil || oo.CacheBlocks != tc.frames {
			t.Errorf("%+v opens on %d frames (%v), want %d", tc.c, oo.CacheBlocks, err, tc.frames)
		}
	}
	if _, err := (engine.BackendConfig{Backend: "sharded"}).OpenOptions(kcore.OpenOptions{}); err == nil {
		t.Error("an unknown backend name was accepted")
	}
}

func TestRegistryOpenGetDrop(t *testing.T) {
	reg := engine.NewRegistry(nil)
	defer reg.Close()

	base := writeGraph(t, 120, 3)
	eng, err := reg.Open("alpha", base)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().NumNodes() != 120 {
		t.Fatalf("nodes = %d, want 120", eng.Snapshot().NumNodes())
	}

	got, ok := reg.Get("alpha")
	if !ok || got != eng {
		t.Fatalf("Get(alpha) = %v, %v; want the opened engine", got, ok)
	}
	if _, ok := reg.Get("beta"); ok {
		t.Fatal("Get(beta) found an unregistered graph")
	}

	// Duplicate and invalid names are rejected without disturbing the
	// existing entry.
	if _, err := reg.Open("alpha", base); !errors.Is(err, engine.ErrExists) {
		t.Fatalf("duplicate Open = %v, want ErrExists", err)
	}
	for _, bad := range []string{"", "a/b", "a b", "héllo", string(make([]byte, 65))} {
		if _, err := reg.Open(bad, base); !errors.Is(err, engine.ErrBadName) {
			t.Fatalf("Open(%q) = %v, want ErrBadName", bad, err)
		}
	}
	if _, ok := reg.Get("alpha"); !ok {
		t.Fatal("alpha lost after rejected registrations")
	}

	if err := reg.Drop("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("alpha"); ok {
		t.Fatal("alpha still registered after Drop")
	}
	if err := reg.Drop("alpha"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("second Drop = %v, want ErrNotFound", err)
	}
	// The engine was drained and sealed by Drop.
	if err := eng.Sync(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Sync on dropped engine = %v, want serve.ErrClosed", err)
	}
	// The name is free again.
	if _, err := reg.Open("alpha", writeGraph(t, 80, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryOpenMissingPath(t *testing.T) {
	reg := engine.NewRegistry(nil)
	defer reg.Close()
	if _, err := reg.Open("ghost", filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open on a missing path succeeded")
	}
	// The failed reservation is released.
	if _, err := reg.Open("ghost", writeGraph(t, 80, 5)); err != nil {
		t.Fatalf("name not released after failed open: %v", err)
	}
}

func TestRegistryServesManyGraphsConcurrently(t *testing.T) {
	reg := engine.NewRegistry(&engine.Options{
		Serve: serve.Options{MaxBatch: 32},
	})
	defer reg.Close()

	const graphs = 3
	names := make([]string, graphs)
	sizes := []uint32{80, 120, 160}
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		if _, err := reg.Open(names[i], writeGraph(t, sizes[i], int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	infos := reg.List()
	if len(infos) != graphs {
		t.Fatalf("List has %d entries, want %d", len(infos), graphs)
	}
	for i, info := range infos {
		if info.Name != names[i] || info.Nodes != sizes[i] {
			t.Fatalf("List[%d] = %+v, want name %s nodes %d", i, info, names[i], sizes[i])
		}
	}

	// Hammer all engines from independent goroutines: per-graph isolation
	// means each engine sees exactly its own updates.
	var wg sync.WaitGroup
	for i, name := range names {
		eng, _ := reg.Get(name)
		wg.Add(1)
		go func(i int, eng engine.Engine) {
			defer wg.Done()
			n := eng.Snapshot().NumNodes()
			for round := 0; round < 20; round++ {
				u := uint32(round) % (n - 1)
				if err := eng.Apply(
					serve.Update{Op: serve.OpInsert, U: u, V: u + 1},
					serve.Update{Op: serve.OpDelete, U: u, V: u + 1},
				); err != nil {
					t.Errorf("graph %d: %v", i, err)
					return
				}
				_ = eng.Snapshot().KCoreAt(2)
			}
		}(i, eng)
	}
	wg.Wait()

	for _, info := range reg.List() {
		st := info.Serve
		if st.Enqueued != 40 {
			t.Fatalf("%s: enqueued %d, want 40 (counters not per-graph?)", info.Name, st.Enqueued)
		}
	}
}

func TestRegistryCloseSealsAndIsIdempotent(t *testing.T) {
	reg := engine.NewRegistry(nil)
	engA, err := reg.Open("a", writeGraph(t, 80, 21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("b", writeGraph(t, 80, 22)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := reg.Open("c", writeGraph(t, 80, 23)); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Open after Close = %v, want ErrClosed", err)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("Names after Close = %v, want empty", names)
	}
	// Engines were drained; their final epochs stay readable.
	if engA.Snapshot() == nil {
		t.Fatal("final epoch unreadable after Close")
	}
	if err := engA.Sync(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Sync after registry Close = %v, want serve.ErrClosed", err)
	}
}
