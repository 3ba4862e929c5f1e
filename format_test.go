package kcore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kcore"
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

// shrinksInLayout wants one fold-back (upgradesOnFoldBack) to rewrite
// the tables at base, laid out in another order than ids, in the same
// layout and in fewer edge-table bytes.
func shrinksInLayout(t *testing.T, base string) {
	t.Helper()
	positions := func() []uint32 {
		t.Helper()
		g, err := storage.Open(base, stats.NewIOCounter(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		return slices.Clone(g.Positions())
	}
	before, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	layout := positions()
	upgradesOnFoldBack(t, base)
	after, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("the fold-back's edge table takes %d bytes, the version-%d table %d", after.EtBytes, before.Version, before.EtBytes)
	if after.EtBytes >= before.EtBytes {
		t.Errorf("the fold-back's edge table takes %d bytes, the version-%d table %d", after.EtBytes, before.Version, before.EtBytes)
	}
	if layout == nil || !slices.Equal(positions(), layout) {
		t.Errorf("the fold-back changed the layout")
	}
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

// TestVersion6TablesStayReadable opens the format-version-6 tables (each
// list in the shorter of its fixed-width and its uvarint form, laid out
// in a peeling order, and a checksum sidecar) that the version-6 tree's
// Build wrote for RMAT(9, 4) seed 3, in place: they hold lists of both
// forms, through the sidecar the index reads them into memory, SemiCore*
// decomposes them to IMCore's cores, and one fold-back rewrites them as
// version 7, in the same layout and in fewer edge-table bytes. A
// version-7 header must say whether its layout is id order too.
func TestVersion6TablesStayReadable(t *testing.T) {
	base := copyTables(t, filepath.Join("testdata", "v6", "g"), ".meta", ".nt", ".et", ".crc")
	meta, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 6 || meta.IDOrder || !meta.HasCRC {
		t.Fatalf("fixture header %+v: want version 6 out of id order, with checksums", meta)
	}
	nt, err := os.ReadFile(base + ".nt")
	if err != nil {
		t.Fatal(err)
	}
	var fixed, uvarints int
	for _, r := range records(t, base, nt) {
		if r.w == 0 {
			uvarints++
		} else if r.deg >= 2 {
			fixed++
		}
	}
	if fixed == 0 || uvarints == 0 {
		t.Fatalf("fixture: %d fixed-width lists of two or more ids and %d uvarint lists; want both", fixed, uvarints)
	}
	shrinksInLayout(t, base)
	refusesHeaders(t, base, "idorder",
		"version=7\nnodes=506\narcs=3200\nntbytes=1390\netbytes=3364\n",
	)
}

// TestEveryOlderFormatHasAReadabilityFixture holds each format version v
// the tree reads below FormatVersion (from storage.OldestFormatVersion on)
// to a table set in testdata/v<v>, whose header is of that version, and
// to a TestVersion<v>TablesStayReadable in this package's tests, so that
// a format bump cannot leave the version it replaces without a fixture;
// and it wants no testdata/v<k> of a version outside that window, whose
// tables nothing reads any more.
func TestEveryOlderFormatHasAReadabilityFixture(t *testing.T) {
	var src strings.Builder
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tests {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(data)
	}
	for v := storage.OldestFormatVersion; v < storage.FormatVersion; v++ {
		if m, err := storage.ReadMeta(filepath.Join("testdata", fmt.Sprintf("v%d", v), "g")); err != nil || m.Version != v {
			t.Errorf("format version %d: testdata/v%d/g holds %+v (%v), want a version-%d table set", v, v, m, err, v)
		}
		if fn := fmt.Sprintf("func TestVersion%dTablesStayReadable(", v); !strings.Contains(src.String(), fn) {
			t.Errorf("format version %d: no %s...) among the root package's tests", v, fn)
		}
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "v*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		v, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "v"))
		if err == nil && (v < storage.OldestFormatVersion || v >= storage.FormatVersion) {
			t.Errorf("%s: a fixture of format version %d; only versions %d ≤ v < %d keep one", dir, v, storage.OldestFormatVersion, storage.FormatVersion)
		}
	}
}

// TestRetiredFormatsAreRefused writes, over the version-7 tables Build
// leaves, a header of each retired format version (1 to 5), with the keys
// that version's header carried: ReadMeta, storage.Open and kcore.Open
// each refuse it, naming the commit whose kcored upgrades such tables.
func TestRetiredFormatsAreRefused(t *testing.T) {
	base := buildFrom(t, []kcore.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 0).Base()
	m, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < storage.OldestFormatVersion; v++ {
		header := fmt.Sprintf("version=%d\nnodes=%d\narcs=%d\n", v, m.N, m.Arcs)
		if v >= 3 {
			header += fmt.Sprintf("ntbytes=%d\n", m.NtBytes)
		}
		if v >= 2 {
			header += fmt.Sprintf("etbytes=%d\n", m.EtBytes)
		}
		if v >= 5 {
			header += "idorder=1\n"
		}
		header += fmt.Sprintf("ntcrc=%d\netcrc=%d\n", m.NtCRC, m.EtCRC)
		if err := os.WriteFile(base+".meta", []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("format version %d is retired", v)
		refused := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "kcored built at commit "+storage.UpgradeCommit) {
				t.Errorf("version %d: %s: %v; want the refusal naming the upgrade at %s", v, what, err, storage.UpgradeCommit)
			}
		}
		_, err := storage.ReadMeta(base)
		refused("ReadMeta", err)
		sg, err := storage.Open(base, stats.NewIOCounter(0), nil)
		if err == nil {
			sg.Close()
		}
		refused("storage.Open", err)
		g, err := kcore.Open(base, nil)
		if err == nil {
			g.Close()
		}
		refused("kcore.Open", err)
	}
}
