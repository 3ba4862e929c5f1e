package engine_test

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/serve"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
	"kcore/internal/wal"
)

func TestMain(m *testing.M) { pins.Main(m) }

// recoveryImage runs a durable graph over a 400-node social graph on
// the frames cfg gives: a checkpoint at LSN 3, one at 6 (the two
// retained), two more acked updates, then an image of the data dir as a
// crash leaves it. It returns the image's graph directory, the retained
// checkpoints' directories, older first, and the oracle's cores after
// all eight updates.
func recoveryImage(t *testing.T, cfg engine.BackendConfig) (img string, ckpts []string, want []uint32) {
	t.Helper()
	const n, seed = 400, 7
	base := writeGraph(t, n, seed)
	ups := freshEdges(n, seed, 8)
	dataDir := t.TempDir()
	reg := engine.NewRegistry(durableOptions(dataDir))
	defer reg.Close()
	eng, err := reg.OpenBackend("g", base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, up := range ups {
		if err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 5 {
			if err := eng.(engine.Checkpointer).Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img = t.TempDir()
	copyTree(t, dataDir, img)
	ckpts, err = filepath.Glob(filepath.Join(img, "g", "ckpt", "*"))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints %v, %v; want the two retained", ckpts, err)
	}
	return filepath.Join(img, "g"), ckpts, memCoresAfter(t, base, [][]serve.Update{ups})[0]
}

// recoverImage recovers the data dir holding the graph directory dir
// and returns the report of its one graph and the engine serving it.
func recoverImage(t *testing.T, dir string) (engine.GraphRecovery, engine.Engine) {
	t.Helper()
	reg := engine.NewRegistry(durableOptions(filepath.Dir(dir)))
	t.Cleanup(func() { reg.Close() })
	rep, err := reg.Recover()
	if err != nil || len(rep.Graphs) != 1 {
		t.Fatalf("recovery: %v, %+v", err, rep)
	}
	eng, _ := reg.Get("g")
	return rep.Graphs[0], eng
}

// rewriteManifest sets key to val (empty: drops its line) in the
// manifest of checkpoint ckpt, with a checksum that holds.
func rewriteManifest(t *testing.T, ckpt, key, val string) {
	t.Helper()
	path := filepath.Join(ckpt, "MANIFEST")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		k, _, _ := strings.Cut(line, "=")
		switch k {
		case "crc":
		case key:
			if val != "" {
				fmt.Fprintf(&body, "%s=%s\n", key, val)
			}
		default:
			body.WriteString(line + "\n")
		}
	}
	crc := crc32.Checksum([]byte(body.String()), crc32.MakeTable(crc32.Castagnoli))
	if err := os.WriteFile(path, fmt.Appendf(nil, "%scrc=%d\n", body.String(), crc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one bit of the byte in the middle of path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFallsBackPastCheckpointWithoutCores: every checkpoint holds
// its core numbers, so a newest checkpoint whose manifest says it holds
// none (cores=0) or says nothing of them (no cores line), its cores file
// gone, is refused as a manifest that does not parse is: recovery falls
// back to the older checkpoint, replays the longer tail past it and
// serves the oracle's cores, with a reason that names the refused
// checkpoint and the upgrade path.
func TestRecoverFallsBackPastCheckpointWithoutCores(t *testing.T) {
	for name, val := range map[string]string{"zero": "0", "missing": ""} {
		t.Run(name, func(t *testing.T) {
			dir, ckpts, want := recoveryImage(t, engine.BackendConfig{Backend: engine.BackendMem})
			rewriteManifest(t, ckpts[1], "cores", val)
			if err := os.Remove(filepath.Join(ckpts[1], "cores")); err != nil {
				t.Fatal(err)
			}
			seq, err := strconv.ParseUint(filepath.Base(ckpts[1]), 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			gr, eng := recoverImage(t, dir)
			newest := fmt.Sprintf("checkpoint %d:", seq)
			if gr.Err != nil || gr.Degraded || !gr.Fallback || gr.Replayed != 5 || !strings.Contains(gr.Reason, newest) || !strings.Contains(gr.Reason, "kcored built at commit "+storage.UpgradeCommit) {
				t.Fatalf("recovery %+v; want a fallback past %q replaying 5 records, naming the upgrade", gr, newest)
			}
			if !slices.Equal(eng.Snapshot().Cores(), want) || durStats(t, eng).LSN != 8 {
				t.Fatalf("recovered at LSN %d; want the oracle's cores at 8", durStats(t, eng).LSN)
			}
		})
	}
}

// TestRecoverFallsBackPastDamagedCheckpoint: the scan reads no table, so
// the bring-up is what refuses a checkpoint whose tables are damaged —
// the open, on the sidecar's block checksums or its own pass's whole-table
// ones, or SemiCore*'s first pass, which reads every list. A byte flipped
// in either table, or the edge table cut short, makes recovery fall back
// to the older checkpoint, replay the longer tail past it and serve the
// oracle's cores, reporting the fallback with a reason that names the
// refused checkpoint, and leave live/ on the older checkpoint's files. So
// does a manifest whose arc count is not its tables': it is refused as a
// manifest that does not parse is. With the older checkpoint damaged too
// the graph is unrecovered, and nothing of either attempt stays in live/.
// Each on the default frames and through 4, with and without the sidecar.
func TestRecoverFallsBackPastDamagedCheckpoint(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, ckpt string)
	}{
		{"et-flip", func(t *testing.T, ckpt string) { flipByte(t, wal.CheckpointBase(ckpt)+".et") }},
		{"nt-flip", func(t *testing.T, ckpt string) { flipByte(t, wal.CheckpointBase(ckpt)+".nt") }},
		{"et-truncated", func(t *testing.T, ckpt string) {
			path := wal.CheckpointBase(ckpt) + ".et"
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest-arcs", func(t *testing.T, ckpt string) {
			meta, err := storage.ReadMeta(wal.CheckpointBase(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			rewriteManifest(t, ckpt, "arcs", strconv.FormatInt(meta.Arcs+2, 10))
		}},
	}
	for _, cfg := range []engine.BackendConfig{{Backend: engine.BackendMem}, {Backend: engine.BackendDisk, CacheBlocks: 4}} {
		for _, sidecar := range []bool{true, false} {
			for _, d := range damages {
				t.Run(fmt.Sprintf("%s/sidecar=%v/%s", cfg.Backend, sidecar, d.name), func(t *testing.T) {
					dir, ckpts, want := recoveryImage(t, cfg)
					if !sidecar {
						for _, ckpt := range ckpts {
							if err := os.Remove(wal.CheckpointBase(ckpt) + ".crc"); err != nil {
								t.Fatal(err)
							}
						}
					}
					d.damage(t, ckpts[1])
					var older []os.FileInfo // recovery's own checkpoint retires the older one's names
					for _, ext := range []string{".nt", ".et"} {
						fi, err := os.Stat(wal.CheckpointBase(ckpts[0]) + ext)
						if err != nil {
							t.Fatal(err)
						}
						older = append(older, fi)
					}
					gr, eng := recoverImage(t, dir)
					seq, err := strconv.ParseUint(filepath.Base(ckpts[1]), 16, 64)
					if err != nil {
						t.Fatal(err)
					}
					newest := fmt.Sprintf("checkpoint %d:", seq)
					if gr.Err != nil || gr.Degraded || !gr.Fallback || gr.Replayed != 5 || !strings.Contains(gr.Reason, newest) {
						t.Fatalf("recovery %+v; want a fallback past %q replaying 5 records", gr, newest)
					}
					if !slices.Equal(eng.Snapshot().Cores(), want) || durStats(t, eng).LSN != 8 {
						t.Fatalf("recovered at LSN %d; want the oracle's cores at 8", durStats(t, eng).LSN)
					}
					for i, ext := range []string{".nt", ".et"} {
						if live, err := os.Stat(wal.LiveBase(dir) + ext); err != nil || !os.SameFile(live, older[i]) {
							t.Fatalf("live/graph%s is not the older checkpoint's (%v)", ext, err)
						}
					}
				})
			}
		}
	}
	t.Run("both", func(t *testing.T) {
		dir, ckpts, _ := recoveryImage(t, engine.BackendConfig{Backend: engine.BackendMem})
		for _, ckpt := range ckpts {
			flipByte(t, wal.CheckpointBase(ckpt)+".et")
		}
		if gr, _ := recoverImage(t, dir); gr.Err == nil || !strings.Contains(gr.Err.Error(), "checkpoint 2:") || !strings.Contains(gr.Err.Error(), "checkpoint 3:") {
			t.Fatalf("recovery %+v; want both checkpoints refused", gr)
		}
		if _, err := os.Stat(filepath.Dir(wal.LiveBase(dir))); !os.IsNotExist(err) {
			t.Fatalf("live/ after every checkpoint was refused: %v; want none", err)
		}
	})
}

// TestRecoverBadCoresComesUpDegraded: a checkpoint's cores file is held
// to its checksum by the scan and its values to the tables' decomposition
// by the bring-up; failing either brings the chosen checkpoint up
// degraded — served read-only at its own LSN, no fallback and no replay —
// with a reason naming what failed.
func TestRecoverBadCoresComesUpDegraded(t *testing.T) {
	for _, tc := range []struct {
		name, reason string
		damage       func(t *testing.T, path string)
	}{
		{"flipped-byte", "cores file", func(t *testing.T, path string) { flipByte(t, path) }},
		{"wrong-cores", engine.ErrCoreMismatch.Error(), func(t *testing.T, path string) {
			cores, err := storage.ReadCores(faultfs.OS, path)
			if err != nil {
				t.Fatal(err)
			}
			cores[0]++
			if err := storage.WriteCores(faultfs.OS, path, cores); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ckpts, _ := recoveryImage(t, engine.BackendConfig{Backend: engine.BackendMem})
			tc.damage(t, filepath.Join(ckpts[1], "cores"))
			gr, eng := recoverImage(t, dir)
			if gr.Err != nil || !gr.Degraded || gr.Fallback || gr.Replayed != 0 || !strings.Contains(gr.Reason, tc.reason) {
				t.Fatalf("recovery %+v; want the newest checkpoint degraded, naming %q", gr, tc.reason)
			}
			if st := durStats(t, eng); st.LSN != 6 || !st.Degraded {
				t.Fatalf("recovered %+v; want degraded at the checkpoint's LSN 6", st)
			}
		})
	}
}

// TestRecoveryIOGate pins the block reads of a recovery on testutil's
// gate graph at B = 4096, all of them on the recovered graph's counter:
// the sidecar, the node table into the index and SemiCore*'s reads, the
// same plus the maintenance reads of a replayed 20-record tail, and the
// bring-up of the same checkpoint without its sidecar — a follower's
// download — whose open is one pass over both tables. The checkpoints
// keep the layout Build wrote. On the default frames, which hold
// the gate graph, SemiCore* reads each block once and the tail's edits
// read none the frames do not hold, so clean and tail read alike; the
// spill legs recover the same two images through testutil.GateFrames,
// where the tail's maintenance pays for its misses.
func TestRecoveryIOGate(t *testing.T) {
	base, edges := testutil.GateGraph(t)
	var ups []serve.Update // ten deletes of present edges, ten inserts of absent ones
	have := make(map[kcore.Edge]bool)
	for _, e := range gen.Build(edges).EdgeList() {
		have[e] = true
		if len(ups) < 10 {
			ups = append(ups, serve.Update{Op: serve.OpDelete, U: e.U, V: e.V})
		}
	}
	for u := uint32(0); len(ups) < 20; u++ {
		if e := (kcore.Edge{U: u, V: u + 1}); !have[e] {
			ups = append(ups, serve.Update{Op: serve.OpInsert, U: e.U, V: e.V})
		}
	}
	// images serves the graph on cfg's frames from a fresh data dir and
	// applies ups; it returns the graph directory closed clean (its final
	// checkpoint holds everything) and a copy taken before the close,
	// whose newest checkpoint is the opening one and whose log holds the
	// 20 records.
	images := func(cfg engine.BackendConfig) (clean, tail string) {
		dataDir, tailDir := t.TempDir(), t.TempDir()
		reg := engine.NewRegistry(durableOptions(dataDir))
		eng, err := reg.OpenBackend("g", base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := eng.Apply(up); err != nil {
				t.Fatal(err)
			}
		}
		copyTree(t, dataDir, tailDir)
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dataDir, "g"), filepath.Join(tailDir, "g")
	}
	clean, tail := images(engine.BackendConfig{})
	frames := testutil.GateFrames(t, base)
	spillClean, spillTail := images(engine.BackendConfig{CacheBlocks: frames})

	ckpts, err := filepath.Glob(filepath.Join(clean, "ckpt", "*"))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints %v, %v", ckpts, err)
	}
	newest := ckpts[1]
	download := filepath.Join(t.TempDir(), "graph")
	for _, ext := range []string{".meta", ".nt", ".et"} {
		data, err := os.ReadFile(wal.CheckpointBase(newest) + ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(download+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cores, err := storage.ReadCores(faultfs.OS, filepath.Join(newest, "cores"))
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]int64)
	for _, tc := range []struct {
		name     string
		dir      string
		replayed int64
	}{
		{"clean", clean, 0},
		{"tail", tail, 20},
		{"spill.clean", spillClean, 0},
		{"spill.tail", spillTail, 20},
	} {
		gr, eng := recoverImage(t, tc.dir)
		if gr.Err != nil || gr.Degraded || gr.Fallback || gr.Replayed != tc.replayed {
			t.Fatalf("%s: recovery %+v; want %d records replayed", tc.name, gr, tc.replayed)
		}
		reads := eng.Report().IO.Reads
		t.Logf("%s: %d block reads", tc.name, reads)
		pins.Check(t, tc.name+".reads", reads)
		got[tc.name] = reads
	}
	if got["spill.tail"] <= got["spill.clean"] {
		t.Fatalf("through %d frames the 20-record tail read %d blocks, the clean recovery %d; want more", frames, got["spill.tail"], got["spill.clean"])
	}

	l, err := engine.BringUp(download, kcore.OpenOptions{}, serve.Options{}, cores)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reads := l.G.IOStats().Reads
	t.Logf("download: %d block reads", reads)
	pins.Check(t, "download.reads", reads)
}
