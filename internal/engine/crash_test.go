package engine_test

import (
	"flag"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/serve"
	"kcore/internal/wal"
)

// The crash suite drives a fixed write script against a durable graph —
// once per backend in crashBackends — with a fault injector underneath every WAL/checkpoint file operation,
// crashes it at each boundary in turn, and asserts that recovery on the
// finalized (damage-applied) directory reconstructs a state that is
// bit-identical — same core numbers, same LSN semantics — to an
// in-memory oracle at the last acknowledged Sync or later.
//
// -crashseed pins the randomized (torn-write) variant for reproduction;
// -crashtrials bounds the randomized variant's trial count.
var (
	crashSeed   = flag.Int64("crashseed", 1, "base seed for randomized crash trials")
	crashTrials = flag.Int("crashtrials", 8, "randomized crash trials to run")
)

// crashNodes sizes the script's graph: its tables span several blocks
// of 512 bytes, so a checkpoint writes each table in more than one write.
// The sweeps do not depend on the count: they crash at every boundary a
// clean run crosses, whatever the tables' sizes make it.
const (
	crashNodes = 480
	crashGSeed = 41
	crashOps   = 6
)

// crashBackends are the frames the sweeps run over, as BackendConfig
// spells them: the same tables through the default 64 frames and through
// a cache of 8 — the reads land on other frames, the same contract holds
// at every boundary.
var crashBackends = []string{engine.BackendMem, engine.BackendDisk}

// crashOutcome is what the script observed before the injected fault.
type crashOutcome struct {
	openOK    bool
	acked     int // applies whose Sync was acknowledged
	attempted int // applies submitted (acked + at most one in flight)
}

// runCrashScript executes the write script against the given backend on
// a fresh registry over inj. Every error is tolerated (that is the
// point); panics are not.
func runCrashScript(t *testing.T, backend, dataDir, base string, inj *faultfs.Injector) crashOutcome {
	t.Helper()
	reg := engine.NewRegistry(&engine.Options{
		Serve: serve.Options{MaxBatch: 1},
		Open:  kcore.OpenOptions{BlockSize: 512},
		Durability: &engine.DurabilityOptions{
			Dir:    dataDir,
			Policy: wal.SyncAlways,
			FS:     inj,
		},
	})
	defer reg.Close() // must never panic, crashed or not
	var out crashOutcome
	eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 8})
	if err != nil {
		return out
	}
	out.openOK = true
	ups := freshEdges(crashNodes, crashGSeed, crashOps)
	for i, up := range ups {
		out.attempted++
		if err := eng.Apply(up); err != nil {
			return out
		}
		out.acked++
		if i == crashOps/2 {
			// A mid-script checkpoint, so the sweep also crashes inside
			// checkpoint commit and WAL truncation.
			if cp, ok := eng.(engine.Checkpointer); ok {
				if err := cp.Checkpoint(); err != nil {
					return out
				}
			}
		}
	}
	return out
}

// verifyCrashRecovery finalizes the injector's damage, recovers the
// data dir on the real filesystem, and checks the contract: no panic
// anywhere, and any recovered graph serves base + the first R script
// updates for some R with acked <= R <= attempted (an acked Sync is
// never lost; an unacked in-flight record may legally survive).
func verifyCrashRecovery(t *testing.T, backend, dataDir string, out crashOutcome, inj *faultfs.Injector) {
	t.Helper()
	if err := inj.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	reg := engine.NewRegistry(durableOptions(dataDir))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !out.openOK {
		// The graph was never handed to the caller; anything goes except a
		// panic or a spuriously healthy graph claiming acked state.
		return
	}
	if len(rep.Graphs) != 1 {
		t.Fatalf("recovered %d graphs, want 1", len(rep.Graphs))
	}
	g := rep.Graphs[0]
	if g.Err != nil {
		t.Fatalf("graph unrecoverable after crash: %v", g.Err)
	}
	if g.Degraded {
		t.Fatalf("crash damage classified as corruption: %s", g.Reason)
	}
	eng, ok := reg.Get("g")
	if !ok {
		t.Fatalf("recovered graph not registered")
	}
	if got := eng.Report().Backend; got != backend {
		t.Fatalf("recovered behind the %s backend, want %s", got, backend)
	}
	r := int(durStats(t, eng).LSN)
	if r < out.acked || r > out.attempted {
		t.Fatalf("recovered LSN %d outside [acked %d, attempted %d]", r, out.acked, out.attempted)
	}
	ups := freshEdges(crashNodes, crashGSeed, crashOps)
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, crashNodes, crashGSeed, ups, r)) {
		t.Fatalf("recovered cores differ from the oracle at prefix %d", r)
	}
}

// requiredCrashKinds are the boundary kinds, operation/file, one clean
// run of the script must cross on every backend: the durable directory's
// set-up (g is the graph's directory), a checkpoint's commit (its
// temporary directory .tmp-N, every file it writes, the rename that
// publishes it, ckpt/ synced), retention's removal of an older checkpoint
// N, and the log segment. A change that drops one of them from the script
// fails the sweeps by its name instead of shrinking them.
var requiredCrashKinds = []string{
	"removeall/g", "create/CONFIG", "write/CONFIG", "sync/CONFIG",
	"removeall/.tmp-N",
	"create/graph.nt", "write/graph.nt", "sync/graph.nt",
	"create/graph.et", "write/graph.et", "sync/graph.et",
	"create/graph.crc", "write/graph.crc", "sync/graph.crc",
	"create/graph.meta", "write/graph.meta", "sync/graph.meta",
	"create/cores", "write/cores", "sync/cores",
	"create/MANIFEST", "write/MANIFEST", "sync/MANIFEST",
	"syncdir/.tmp-N", "rename/.tmp-N", "syncdir/ckpt",
	"removeall/N", "create/N.seg", "write/N.seg", "sync/N.seg",
}

// seqDigits matches a checkpoint's or a log segment's sequence number.
var seqDigits = regexp.MustCompile(`[0-9]{16}`)

// crashBoundary is one boundary of a clean run: its kind, operation/file
// (the file's base name, sequence numbers written N), how many
// boundaries of that kind came before it, and how many the run crossed.
type crashBoundary struct {
	kind  string
	n, of int
}

// crashBoundaries runs the script unarmed and returns every injector
// boundary one clean run (including clean shutdown) crosses, in order,
// so that Arm(k) hits the k-th. It fails if the run missed a required
// kind, naming it.
func crashBoundaries(t *testing.T, backend, base string) []crashBoundary {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS)
	out := runCrashScript(t, backend, t.TempDir(), base, inj)
	if !out.openOK || out.acked != crashOps {
		t.Fatalf("unarmed script did not run clean: %+v", out)
	}
	seen := make(map[string]int)
	var bs []crashBoundary
	for _, b := range inj.Boundaries() {
		kind := b.Op + "/" + seqDigits.ReplaceAllString(filepath.Base(b.Path), "N")
		bs = append(bs, crashBoundary{kind: kind, n: seen[kind]})
		seen[kind]++
	}
	for i := range bs {
		bs[i].of = seen[bs[i].kind]
	}
	for _, kind := range requiredCrashKinds {
		if seen[kind] == 0 {
			t.Fatalf("%s: a clean run never crossed %s — the script no longer exercises that part of the durability path", backend, kind)
		}
	}
	t.Logf("%s: %d boundaries of %d kinds", backend, len(bs), len(seen))
	return bs
}

// sweepBoundaries arms a fresh run of the script on each backend at
// every boundary k (1-based) keep selects, in mode, and checks recovery
// after it. Each subtest is <backend>/op<k>, and inside it the leg is
// named by what it interrupts, <op>/<file>/<n>: disk/op016/write/graph.et/05
// is the sixth write of a checkpoint's edge table. The op<k> level
// keeps the names earlier runs of the suite know; the leaf keeps its
// name when the tables' sizes change the count of block writes before
// it, unless it is one of them. Every leg opens the same base tables:
// the script only reads them, and writes under its own data dir.
func sweepBoundaries(t *testing.T, mode faultfs.Mode, keep func(k int, b crashBoundary) bool) {
	base := writeGraph(t, crashNodes, crashGSeed)
	for _, backend := range crashBackends {
		for i, b := range crashBoundaries(t, backend, base) {
			k := i + 1
			if !keep(k, b) {
				continue
			}
			t.Run(fmt.Sprintf("%s/op%03d", backend, k), func(t *testing.T) {
				t.Run(fmt.Sprintf("%s/%02d", b.kind, b.n), func(t *testing.T) {
					dataDir := t.TempDir()
					inj := faultfs.NewInjector(faultfs.OS)
					inj.Arm(int64(k), mode)
					out := runCrashScript(t, backend, dataDir, base, inj)
					if inj.Crashed() != (mode == faultfs.Crash) {
						t.Fatalf("crashed %v in mode %v", inj.Crashed(), mode)
					}
					verifyCrashRecovery(t, backend, dataDir, out, inj)
				})
			})
		}
	}
}

// TestCrashSweepEveryBoundary is the exhaustive deterministic sweep:
// crash (worst-case damage: all unsynced bytes lost, all un-fsynced
// renames reverted) at every single boundary of the script.
func TestCrashSweepEveryBoundary(t *testing.T) {
	sweepBoundaries(t, faultfs.Crash, func(int, crashBoundary) bool { return true })
}

// TestCrashRandomizedTornWrites repeats the sweep at randomized
// boundaries with seeded damage: armed writes may land a partial
// prefix, unsynced tails survive partially, and un-fsynced renames are
// kept with probability 1/2. Failures print the seed to re-run with
// -crashseed.
func TestCrashRandomizedTornWrites(t *testing.T) {
	base := writeGraph(t, crashNodes, crashGSeed)
	for _, backend := range crashBackends {
		bs := crashBoundaries(t, backend, base)
		for i := 0; i < *crashTrials; i++ {
			seed := *crashSeed + int64(i)
			t.Run(fmt.Sprintf("%s/seed%d", backend, seed), func(t *testing.T) {
				dataDir := t.TempDir()
				inj := faultfs.NewInjector(faultfs.OS).WithRand(seed)
				k := (seed * 2654435761) % int64(len(bs))
				if k < 0 {
					k += int64(len(bs))
				}
				t.Logf("seed %d: crash at %s/%02d", seed, bs[k].kind, bs[k].n)
				inj.Arm(k+1, faultfs.Crash)
				out := runCrashScript(t, backend, dataDir, base, inj)
				if !inj.Crashed() {
					t.Fatalf("seed %d: boundary %d never fired", seed, k+1)
				}
				verifyCrashRecovery(t, backend, dataDir, out, inj)
			})
		}
	}
}

// TestCrashFailModeSurfacesErrors injects a transient failure (the op
// errors once, the filesystem survives) at every fifth boundary and once
// at every kind: at its second boundary where it has one — mostly the
// mid-script checkpoint's or a log record's, past which the process
// keeps running — else at its only one. The engine must surface an
// error — never panic, never ack a write it did not log — and the
// directory (intact: no crash, no damage to finalize) must stay
// recoverable.
func TestCrashFailModeSurfacesErrors(t *testing.T) {
	sweepBoundaries(t, faultfs.Fail, func(k int, b crashBoundary) bool {
		return k%5 == 1 || b.n == min(1, b.of-1)
	})
}
