package kcore_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/faultfs"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// copyTables copies the files src+ext into a fresh directory and returns
// the path prefix of the copies.
func copyTables(t *testing.T, src string, exts ...string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	for _, ext := range exts {
		data, err := os.ReadFile(src + ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return base
}

// upgradesOnFoldBack opens the tables an older tree wrote at base, in
// place: they open and SemiCore* decomposes them to IMCore's cores,
// which it returns; then one DeleteEdge and Flush rewrites them in the
// current format, keeping their layout (a fold-back keeps its source's),
// its tables smaller than 12 bytes a node and 4 an arc, which a fresh
// open and SemiCore* decompose to the cores the maintainer holds.
func upgradesOnFoldBack(t *testing.T, base string) *kcore.Result {
	t.Helper()
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	// The check of stored tables: the open holds them to their header,
	// and SemiCore* reads every list through blocks held to it.
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
	res := decomposeAgrees("as written")

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
	if after.Version != storage.FormatVersion || after.IDOrder != meta.IDOrder || after.Arcs != meta.Arcs-2 || after.NtBytes >= 12*int64(after.N) || after.EtBytes >= 4*after.Arcs {
		t.Fatalf("after one fold-back the header is %+v, want version %d, id order %v, %d arcs, fewer than 12 bytes a node and 4 an arc", after, storage.FormatVersion, meta.IDOrder, meta.Arcs-2)
	}
	fresh, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatalf("open after the fold-back: %v", err)
	}
	defer fresh.Close()
	if res, err := kcore.Decompose(fresh, nil); err != nil || !slices.Equal(res.Core, m.Cores()) {
		t.Fatalf("SemiCore* on a fresh open after the fold-back: %v; want the cores the maintainer holds", err)
	}
	if got := decomposeAgrees("rewritten"); !slices.Equal(got.Core, m.Cores()) {
		t.Fatalf("after the fold-back: cores %v, the maintainer holds %v", got.Core, m.Cores())
	}
	return res
}

// refusesHeaders wants ReadMeta to refuse each header, naming key.
func refusesHeaders(t *testing.T, base, key string, headers ...string) {
	t.Helper()
	for _, header := range headers {
		if err := os.WriteFile(base+".meta", []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.ReadMeta(base); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("header %q: err = %v, want a refusal naming %s", header, err, key)
		}
	}
}

// TestVersion1TablesStayReadable opens the format-version-1 tables (4-byte
// absolute ids, arc offsets, no checksum sidecar) of a checkpoint an
// older tree wrote, in place: they verify, decompose to IMCore's cores and
// to the cores that tree saved beside them, and one fold-back rewrites
// them in the current format, smaller and still verified. A version-2
// header must give the edge table's size, and a version-1 header must
// not.
func TestVersion1TablesStayReadable(t *testing.T) {
	src := filepath.Join("internal", "engine", "testdata", "parent-datadir", "g", "ckpt", "0000000000000002")
	base := copyTables(t, filepath.Join(src, "graph"), ".meta", ".nt", ".et")
	saved, err := storage.ReadCores(faultfs.OS, filepath.Join(src, "cores"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.EtBytes != 4*meta.Arcs || meta.NtBytes != 12*int64(meta.N) {
		t.Fatalf("fixture header %+v: want version 1, 4 bytes an arc and 12 a node", meta)
	}
	if res := upgradesOnFoldBack(t, base); !slices.Equal(res.Core, saved) {
		t.Fatalf("cores %v, the older tree saved %v", res.Core, saved)
	}
	refusesHeaders(t, base, "etbytes",
		"version=2\nnodes=48\narcs=470\n",
		"version=1\nnodes=48\narcs=470\netbytes=1880\n",
	)
}

// TestVersion2TablesStayReadable opens the format-version-2 tables
// (gap-coded lists, 12-byte node records with byte offsets, a checksum
// sidecar) that an older tree built for RMAT(9, 4) seed 3, in place: they
// verify, SemiCore* decomposes them to IMCore's cores, and one fold-back
// rewrites them in the current format, whose node table is a varint or
// two a node. A version-3 header must give the node table's size, and a
// version-1 or version-2 header must not.
func TestVersion2TablesStayReadable(t *testing.T) {
	base := copyTables(t, filepath.Join("testdata", "v2", "g"), ".meta", ".nt", ".et", ".crc")
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.NtBytes != 12*int64(meta.N) || !meta.HasCRC {
		t.Fatalf("fixture header %+v: want version 2 with checksums and 12 bytes a node", meta)
	}
	upgradesOnFoldBack(t, base)
	refusesHeaders(t, base, "ntbytes",
		"version=3\nnodes=506\narcs=3200\netbytes=3639\n",
		"version=2\nnodes=506\narcs=3200\nntbytes=6072\netbytes=3639\n",
		"version=1\nnodes=506\narcs=3200\nntbytes=6072\n",
	)
}

// TestVersion3TablesStayReadable opens the format-version-3 tables (one
// varint a node, in id order, and a checksum sidecar) that an older tree
// built for RMAT(9, 4) seed 3, in place: through the sidecar the index
// reads them into memory, SemiCore* decomposes them to IMCore's cores, and
// one fold-back rewrites them as version 3 again, since it keeps their id
// order. A version-4 header must give the node table's size too, and one
// must give at least two bytes a record.
func TestVersion3TablesStayReadable(t *testing.T) {
	base := copyTables(t, filepath.Join("testdata", "v3", "g"), ".meta", ".nt", ".et", ".crc")
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 3 || meta.NtBytes >= 2*int64(meta.N) || !meta.HasCRC {
		t.Fatalf("fixture header %+v: want version 3 with checksums and under 2 bytes a node", meta)
	}
	upgradesOnFoldBack(t, base)
	refusesHeaders(t, base, "ntbytes",
		"version=4\nnodes=506\narcs=3200\netbytes=3639\n",
	)
	refusesHeaders(t, base, "cannot hold",
		"version=4\nnodes=506\narcs=3200\nntbytes=526\netbytes=3639\n",
	)
}

// TestVersion4TablesStayReadable opens the format-version-4 tables
// (fixed-width lists laid out in a peeling order, each node record led by
// its id's delta, and a checksum sidecar) that an older tree's Build wrote
// for RMAT(9, 4) seed 3, in place: through the sidecar the index reads
// them into memory, SemiCore* decomposes them to IMCore's cores, and one
// fold-back rewrites them in the current format, in the same layout and
// in fewer edge-table bytes. A version-5 header must say whether its
// layout is id order, and an older one must not.
func TestVersion4TablesStayReadable(t *testing.T) {
	base := copyTables(t, filepath.Join("testdata", "v4", "g"), ".meta", ".nt", ".et", ".crc")
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 4 || meta.IDOrder || !meta.HasCRC {
		t.Fatalf("fixture header %+v: want version 4 out of id order, with checksums", meta)
	}
	positions := func() []uint32 {
		t.Helper()
		g, err := storage.Open(base, stats.NewIOCounter(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		return slices.Clone(g.Positions())
	}
	layout := positions()
	upgradesOnFoldBack(t, base)
	after, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if after.EtBytes >= meta.EtBytes {
		t.Errorf("the fold-back's edge table takes %d bytes, the version-4 table %d", after.EtBytes, meta.EtBytes)
	}
	if layout == nil || !slices.Equal(positions(), layout) {
		t.Errorf("the fold-back changed the layout")
	}
	refusesHeaders(t, base, "idorder",
		"version=5\nnodes=506\narcs=3200\nntbytes=1135\netbytes=3639\n",
		"version=4\nnodes=506\narcs=3200\nntbytes=1135\netbytes=3639\nidorder=0\n",
		"version=5\nnodes=506\narcs=3200\nntbytes=1135\netbytes=3639\nidorder=2\n",
	)
}
