package semicore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/memgraph"
	"kcore/internal/storage"
)

// A decomposition at rest is its core numbers in the one core-number file
// (storage.WriteCores); SemiCoreStarFrom rebuilds the counters from them
// against the graph. These tests cover that snapshot path end to end.

// saveAndResume writes core to a core-number file, reads it back and
// resumes SemiCore* on g from it.
func saveAndResume(t *testing.T, g *memgraph.CSR, core []uint32) *Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cores")
	if err := storage.WriteCores(faultfs.OS, path, core); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadCores(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, core) {
		t.Fatalf("cores file read back %v, wrote %v", back, core)
	}
	res, err := SemiCoreStarFrom(g, back, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotRoundTrip: SemiCore*'s cores saved and resumed give back its
// cores and counters in one iteration.
func TestSnapshotRoundTrip(t *testing.T) {
	g := gen.Build(gen.Social(300, 3, 10, 8, 401))
	res, err := SemiCoreStar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	back := saveAndResume(t, g, res.Core)
	if !slices.Equal(back.Core, res.Core) || !slices.Equal(back.Cnt, res.Cnt) {
		t.Fatal("the resumed state differs from the saved decomposition")
	}
	if back.Stats.Iterations != 1 {
		t.Fatalf("resume from the saved cores took %d iterations, want 1", back.Stats.Iterations)
	}
}

// TestSnapshotValidation: a flipped byte, a truncated file, a KCSNAP01
// file of the old format and a missing file are refused when read, and a
// saved array of the wrong size is refused by SemiCoreStarFrom.
func TestSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cores")
	g := gen.SampleGraph()
	res, err := SemiCoreStar(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteCores(faultfs.OS, path, res.Core); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sample.kcsnap01"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := slices.Clone(data)
	corrupt[len(corrupt)/2] ^= 0xff
	for name, bad := range map[string][]byte{
		"flipped byte": corrupt,
		"truncated":    data[:10],
		"KCSNAP01":     old,
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.ReadCores(faultfs.OS, path); err == nil {
			t.Fatalf("%s cores file accepted", name)
		}
	}
	if _, err := storage.ReadCores(faultfs.OS, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := SemiCoreStarFrom(g, res.Core[1:], nil); err == nil {
		t.Fatal("cores of the wrong size accepted")
	}
}

// TestSnapshotEmptyState: the empty graph's empty cores round-trip.
func TestSnapshotEmptyState(t *testing.T) {
	g, err := memgraph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	back := saveAndResume(t, g, nil)
	if len(back.Core) != 0 || len(back.Cnt) != 0 {
		t.Fatal("empty state round trip not empty")
	}
}
