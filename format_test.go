package kcore_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/faultfs"
	"kcore/internal/storage"
)

// TestVersion1TablesStayReadable opens the format-version-1 tables (4-byte
// absolute ids, arc offsets, no checksum sidecar) of a checkpoint an
// older tree wrote, in place: they verify, decompose to IMCore's cores and
// to the cores that tree saved beside them, and one fold-back rewrites
// them as version 2, smaller and still verified. A version-2 header must
// give the edge table's size, and a version-1 header must not.
func TestVersion1TablesStayReadable(t *testing.T) {
	src := filepath.Join("internal", "engine", "testdata", "parent-datadir", "g", "ckpt", "0000000000000002")
	base := filepath.Join(t.TempDir(), "g")
	for _, ext := range []string{".meta", ".nt", ".et"} {
		data, err := os.ReadFile(filepath.Join(src, "graph"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	saved, err := storage.ReadCores(faultfs.OS, filepath.Join(src, "cores"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.EtBytes != 4*meta.Arcs {
		t.Fatalf("fixture header %+v: want version 1 and 4 bytes an arc", meta)
	}
	if err := storage.Verify(base); err != nil {
		t.Fatalf("Verify of version-1 tables: %v", err)
	}

	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// decomposeAgrees decomposes g with SemiCore* and IMCore and wants
	// both on the same cores, which it returns.
	decomposeAgrees := func(when string) *kcore.Result {
		t.Helper()
		star, err := kcore.Decompose(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		im, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.IMCore})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !slices.Equal(star.Core, im.Core) {
			t.Fatalf("%s: SemiCore* cores %v, IMCore %v", when, star.Core, im.Core)
		}
		return star
	}
	res := decomposeAgrees("version 1")
	if !slices.Equal(res.Core, saved) {
		t.Fatalf("cores %v, the older tree saved %v", res.Core, saved)
	}

	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := g.Neighbors(0)
	if err != nil || len(nbrs) == 0 {
		t.Fatalf("fixture: node 0 has neighbours %v (%v)", nbrs, err)
	}
	if _, err := m.DeleteEdge(0, nbrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 || after.Arcs != meta.Arcs-2 || after.EtBytes >= 4*after.Arcs {
		t.Fatalf("after one fold-back the header is %+v, want version 2 with %d arcs in fewer than 4 bytes each", after, meta.Arcs-2)
	}
	if err := storage.Verify(base); err != nil {
		t.Fatalf("Verify after the fold-back: %v", err)
	}
	if got := decomposeAgrees("version 2"); !slices.Equal(got.Core, m.Cores()) {
		t.Fatalf("after the fold-back: cores %v, the maintainer holds %v", got.Core, m.Cores())
	}

	for _, header := range []string{
		"version=2\nnodes=48\narcs=470\n",
		"version=1\nnodes=48\narcs=470\netbytes=1880\n",
	} {
		if err := os.WriteFile(base+".meta", []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.ReadMeta(base); err == nil || !strings.Contains(err.Error(), "etbytes") {
			t.Errorf("header %q: err = %v, want a refusal naming etbytes", header, err)
		}
	}
}
