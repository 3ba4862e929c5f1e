package engine_test

import (
	"flag"
	"fmt"
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

// crashNodes sizes the script's graph. Every table block a checkpoint
// writes is a boundary; at 480 nodes the tables, a varint or two a node
// and lists in the shortest of a fixed width, uvarints and Rice, span
// enough 512-byte blocks that the script crosses 103 boundaries (460 to
// 500 nodes all do; 420 nodes crossed 103 until lists took the Rice form
// and 100 after; 400 crossed 103 while every list took a fixed width;
// 160 nodes crossed 100 on 12 bytes a node and 91 on a varint; the
// 4-byte tables of 48 nodes crossed 97).
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
func verifyCrashRecovery(t *testing.T, label, backend, dataDir string, out crashOutcome, inj *faultfs.Injector) {
	t.Helper()
	if err := inj.Finalize(); err != nil {
		t.Fatalf("%s: finalize: %v", label, err)
	}
	reg := engine.NewRegistry(durableOptions(dataDir))
	defer reg.Close()
	rep, err := reg.Recover()
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	if !out.openOK {
		// The graph was never handed to the caller; anything goes except a
		// panic or a spuriously healthy graph claiming acked state.
		return
	}
	if len(rep.Graphs) != 1 {
		t.Fatalf("%s: recovered %d graphs, want 1", label, len(rep.Graphs))
	}
	g := rep.Graphs[0]
	if g.Err != nil {
		t.Fatalf("%s: graph unrecoverable after crash: %v", label, g.Err)
	}
	if g.Degraded {
		t.Fatalf("%s: crash damage classified as corruption: %s", label, g.Reason)
	}
	eng, ok := reg.Get("g")
	if !ok {
		t.Fatalf("%s: recovered graph not registered", label)
	}
	if got := eng.Report().Backend; got != backend {
		t.Fatalf("%s: recovered behind the %s backend, want %s", label, got, backend)
	}
	r := int(durStats(t, eng).LSN)
	if r < out.acked || r > out.attempted {
		t.Fatalf("%s: recovered LSN %d outside [acked %d, attempted %d]",
			label, r, out.acked, out.attempted)
	}
	ups := freshEdges(crashNodes, crashGSeed, crashOps)
	if !slices.Equal(eng.Snapshot().Cores(), oracleCores(t, crashNodes, crashGSeed, ups, r)) {
		t.Fatalf("%s: recovered cores differ from the oracle at prefix %d", label, r)
	}
}

// minCrashBoundaries is the fewest injector boundaries one clean run of
// the script may cross on either backend: the 103 it crosses on both, so
// a change that drops durability work from the script fails the sweeps
// instead of shrinking them.
const minCrashBoundaries = 103

// countCrashBoundaries runs the script unarmed and reports how many
// injector boundaries one clean run (including clean shutdown) crosses,
// at least minCrashBoundaries.
func countCrashBoundaries(t *testing.T, backend string) int64 {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS)
	out := runCrashScript(t, backend, t.TempDir(), writeGraph(t, crashNodes, crashGSeed), inj)
	if !out.openOK || out.acked != crashOps {
		t.Fatalf("unarmed script did not run clean: %+v", out)
	}
	if inj.Ops() < minCrashBoundaries {
		t.Fatalf("%s: only %d boundaries, fewer than %d — the script no longer exercises the durability path", backend, inj.Ops(), minCrashBoundaries)
	}
	return inj.Ops()
}

// TestCrashSweepEveryBoundary is the exhaustive deterministic sweep:
// crash (worst-case damage: all unsynced bytes lost, all un-fsynced
// renames reverted) at every single boundary of the script.
func TestCrashSweepEveryBoundary(t *testing.T) {
	for _, backend := range crashBackends {
		total := countCrashBoundaries(t, backend)
		for k := int64(1); k <= total; k++ {
			t.Run(fmt.Sprintf("%s/op%03d", backend, k), func(t *testing.T) {
				dataDir := t.TempDir()
				inj := faultfs.NewInjector(faultfs.OS)
				inj.Arm(k, faultfs.Crash)
				out := runCrashScript(t, backend, dataDir, writeGraph(t, crashNodes, crashGSeed), inj)
				if !inj.Crashed() {
					t.Fatalf("boundary %d never fired (script crossed %d ops)", k, inj.Ops())
				}
				verifyCrashRecovery(t, inj.Trigger(), backend, dataDir, out, inj)
			})
		}
	}
}

// TestCrashRandomizedTornWrites repeats the sweep at randomized
// boundaries with seeded damage: armed writes may land a partial
// prefix, unsynced tails survive partially, and un-fsynced renames are
// kept with probability 1/2. Failures print the seed to re-run with
// -crashseed.
func TestCrashRandomizedTornWrites(t *testing.T) {
	for _, backend := range crashBackends {
		total := countCrashBoundaries(t, backend)
		for i := 0; i < *crashTrials; i++ {
			seed := *crashSeed + int64(i)
			t.Run(fmt.Sprintf("%s/seed%d", backend, seed), func(t *testing.T) {
				dataDir := t.TempDir()
				inj := faultfs.NewInjector(faultfs.OS).WithRand(seed)
				k := 1 + (seed*2654435761)%total
				if k < 0 {
					k += total
				}
				inj.Arm(k, faultfs.Crash)
				out := runCrashScript(t, backend, dataDir, writeGraph(t, crashNodes, crashGSeed), inj)
				if !inj.Crashed() {
					t.Fatalf("seed %d: boundary %d never fired", seed, k)
				}
				verifyCrashRecovery(t, fmt.Sprintf("seed %d, %s", seed, inj.Trigger()), backend, dataDir, out, inj)
			})
		}
	}
}

// TestCrashFailModeSurfacesErrors injects transient failures (the op
// errors once, the filesystem survives) at a spread of boundaries: the
// engine must surface an error — never panic, never ack a write it did
// not log — and the directory must stay recoverable.
func TestCrashFailModeSurfacesErrors(t *testing.T) {
	for _, backend := range crashBackends {
		total := countCrashBoundaries(t, backend)
		for k := int64(1); k <= total; k += 5 {
			t.Run(fmt.Sprintf("%s/op%03d", backend, k), func(t *testing.T) {
				dataDir := t.TempDir()
				inj := faultfs.NewInjector(faultfs.OS)
				inj.Arm(k, faultfs.Fail)
				out := runCrashScript(t, backend, dataDir, writeGraph(t, crashNodes, crashGSeed), inj)
				if inj.Crashed() {
					t.Fatalf("Fail mode crashed the filesystem")
				}
				// The tree is intact (no crash, no damage to finalize), so if
				// the graph was created at all it must recover consistently.
				verifyCrashRecovery(t, fmt.Sprintf("fail at %d", k), backend, dataDir, out, inj)
			})
		}
	}
}
