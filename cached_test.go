package kcore_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/testutil/pins"
)

// fileBlocks sums ⌈size/B⌉ over the files at base + each of exts.
func fileBlocks(t *testing.T, base string, b int64, exts ...string) int64 {
	t.Helper()
	var n int64
	for _, ext := range exts {
		fi, err := os.Stat(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		n += (fi.Size() + b - 1) / b
	}
	return n
}

// TestCachedOpenIOGate pins what opening a graph costs, whatever its
// frames: with the checksum sidecar Build writes, reading the sidecar —
// ⌈crc/B⌉ blocks, folded into the per-block checksums every later cache
// fill is verified against and held to the header's whole-table ones —
// and not one block more, nor any write, nor any cache lookup. Without
// the sidecar (a graph from an older builder, a follower's download) the
// open falls back to one sequential pass over both tables, ⌈nt/B⌉ +
// ⌈et/B⌉ reads, recording the same checksums. The gate graph's own open
// pays the sidecar too.
func TestCachedOpenIOGate(t *testing.T) {
	g, _ := gateGraph(t)
	for _, leg := range []struct {
		name string
		exts []string
	}{{"sidecar", []string{".crc"}}, {"fallback", []string{".nt", ".et"}}} {
		if leg.name == "fallback" {
			if err := os.Remove(g.Base() + ".crc"); err != nil {
				t.Fatal(err)
			}
		}
		blocks := fileBlocks(t, g.Base(), 4096, leg.exts...)
		pins.Check(t, leg.name+".reads", blocks)
		cg, err := kcore.Open(g.Base(), &kcore.OpenOptions{CacheBlocks: 16})
		if err != nil {
			t.Fatal(err)
		}
		if io := cg.IOStats(); io.Reads != blocks || io.Writes != 0 {
			t.Errorf("%s: cached Open charged %d reads and %d writes, want exactly the %d blocks of %v and none", leg.name, io.Reads, io.Writes, blocks, leg.exts)
		}
		if ds := cg.DiskStats(); ds.CacheHits+ds.CacheMisses != 0 {
			t.Errorf("%s: the open went through the cache: %+v", leg.name, ds)
		}
		cg.Close()
		if leg.name == "sidecar" {
			if io := g.IOStats(); io.Reads != blocks {
				t.Errorf("the gate graph's open charged %d reads, want the sidecar's %d", io.Reads, blocks)
			}
		}
	}
}

// TestCachedFoldBackIOGate pins what folding the update buffer back into
// a cached graph's tables costs: one sequential read of the old edge
// table through the frames — the node records come from the index, so the
// node table is not read again — one sequential write of the new tables
// and their sidecar, and a reopen that reads only the new sidecar — no
// second pass over the tables it has just written. The cache holds the whole graph, so nothing is
// evicted and every old edge block is read once between open and the end
// of the flush: the deletes' misses before it, the rest in it. The merged
// bytes DiskStats counts are the tables the fold-back wrote: the
// fold-back keeps the layout Build gave the tables.
func TestCachedFoldBackIOGate(t *testing.T) {
	base, edges := testutil.GateGraph(t)
	g, err := kcore.Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	nt, et := fileBlocks(t, base, 4096, ".nt"), fileBlocks(t, base, 4096, ".et")
	cg, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: int(nt+et) + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	m, err := kcore.NewMaintainer(cg, &kcore.MaintainerOptions{FromResult: res})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range gen.Build(edges).EdgeList()[:20] {
		if _, err := m.DeleteEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	io0, ds0 := cg.IOStats(), cg.DiskStats()
	if err := cg.Flush(); err != nil {
		t.Fatal(err)
	}
	io, ds := cg.IOStats().Sub(io0), cg.DiskStats()
	sidecar := fileBlocks(t, base, 4096, ".crc")
	if ds.Merges != 1 || ds.CacheEvictions != 0 {
		t.Fatalf("%d merges and %d evictions, want one merge on a cache that holds the graph", ds.Merges, ds.CacheEvictions)
	}
	scan := et - ds0.CacheMisses // the old edge blocks the deletes left unread
	if misses := ds.CacheMisses - ds0.CacheMisses; misses != scan {
		t.Errorf("the rewrite missed %d blocks of the old edge table, want the %d not yet cached", misses, scan)
	}
	if io.Reads != scan+sidecar {
		t.Errorf("one fold-back read %d blocks, want the old edge table's %d and the new sidecar's %d", io.Reads, scan, sidecar)
	}
	if want := fileBlocks(t, base, 4096, ".nt", ".et", ".crc"); io.Writes != want {
		t.Errorf("one fold-back wrote %d blocks, want the new tables' and sidecar's %d", io.Writes, want)
	}
	var tables int64
	for _, ext := range []string{".nt", ".et"} {
		fi, err := os.Stat(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		tables += fi.Size()
	}
	if ds.MergedBytes != tables {
		t.Errorf("the fold-back counted %d merged bytes, want the new tables' %d", ds.MergedBytes, tables)
	}
	pins.Check(t, "merged_bytes", ds.MergedBytes)
}

// TestFlushRefusesDamagedTable: the fold-back reads every edge block of
// the tables it replaces held to its checksum, so a list's ids moved by one
// under the graph (the low bit of its first id flipped) — still sorted,
// the tiling intact: nothing but a checksum can tell — fails the Flush
// with the checksum error and
// leaves every file at the graph's base as it was, instead of being
// copied into new tables whose fresh checksums would vouch for the
// damage. On the default frames and through a cache of four alike: the
// pass fails at the damaged block's fill.
func TestFlushRefusesDamagedTable(t *testing.T) {
	edges := gen.RMAT(10, 8, .57, .19, .19, 2)
	for _, frames := range []int{0, 4} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			g := buildFrom(t, edges, 0)
			base := g.Base()
			res, err := kcore.Decompose(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := kcore.Open(base, &kcore.OpenOptions{BlockSize: 512, CacheBlocks: frames})
			if err != nil {
				t.Fatal(err)
			}
			defer cg.Close()
			m, err := kcore.NewMaintainer(cg, &kcore.MaintainerOptions{FromResult: res})
			if err != nil {
				t.Fatal(err)
			}
			e := gen.Build(edges).EdgeList()[0]
			if _, err := m.DeleteEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			// The edge table starts with the lists of the lowest degrees,
			// which the delete did not fetch: flip the low bit of the
			// first list's first id.
			f, err := os.OpenFile(base+".et", os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte
			if _, err := f.ReadAt(b[:], 0); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x01
			if _, err := f.WriteAt(b[:], 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			files := func() (all []string) {
				for _, ext := range []string{".meta", ".nt", ".et", ".crc"} {
					data, err := os.ReadFile(base + ext)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, string(data))
				}
				return all
			}
			before := files()
			if err := cg.Flush(); err == nil || !strings.Contains(err.Error(), "crc") && !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("Flush over a damaged table: %v, want the checksum error", err)
			}
			if !slices.Equal(files(), before) {
				t.Error("the failed Flush changed the files at the graph's base")
			}
			if left, _ := filepath.Glob(base + ".compact.*"); len(left) != 0 {
				t.Errorf("the failed Flush left %v behind", left)
			}
			if cg.BufferedArcs() != 2 {
				t.Errorf("%d arcs buffered after the failed Flush, want the delete's 2", cg.BufferedArcs())
			}
		})
	}
}

// tableWrites is a durability filesystem that counts the table sets
// checkpoints create (one graph.nt each) and the bytes written to their
// table and sidecar files.
type tableWrites struct {
	faultfs.FS
	sets, bytes atomic.Int64
}

func (f *tableWrites) Create(name string) (faultfs.File, error) {
	file, err := f.FS.Create(name)
	switch filepath.Base(name) {
	case "graph.nt":
		f.sets.Add(1)
		fallthrough
	case "graph.et", "graph.crc":
		if err == nil {
			return countedFile{file, &f.bytes}, nil
		}
	}
	return file, err
}

type countedFile struct {
	faultfs.File
	n *atomic.Int64
}

func (c countedFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestDurableFoldBackIOGate pins what a durable graph's fold-back costs:
// the checkpoint its full buffer triggers, adopted — nothing rewritten on
// the writer, and no table set but the checkpoints'. The schedule fills
// a 512-arc buffer once, syncs, forces a checkpoint and closes. Exactly
// two table sets are written, the opening checkpoint's and the fill's,
// each streaming live/'s edge table once (⌈et/B⌉ reads: the node records
// come from the index) and writing its tables and sidecar; the forced and the final checkpoint are at the
// fill's LSN and write nothing. The graph's own counter writes no block,
// and live/ ends up as the fill checkpoint's tables. A second leg applies
// one more update before the close: the final checkpoint then writes a
// third table set, and Close still leaves live/ alone — the adopted
// graph's buffer is in the log and that checkpoint, not folded back.
func TestDurableFoldBackIOGate(t *testing.T) {
	const fill = 512
	base, edges := testutil.GateGraph(t)
	have := make(map[kcore.Edge]bool)
	for _, e := range gen.Build(edges).EdgeList() {
		have[e] = true
	}
	var ups []serve.Update // fresh inserts, two arcs each: enough to pass the fill once
	for u := uint32(0); len(ups) <= fill/2; u++ {
		if e := (kcore.Edge{U: u, V: u + 1}); !have[e] {
			ups = append(ups, serve.Update{Op: serve.OpInsert, U: e.U, V: e.V})
		}
	}
	scan := fileBlocks(t, base, 4096, ".et")
	for _, leg := range []struct {
		backend string
		more    bool // one update after the forced checkpoint
	}{{engine.BackendMem, false}, {engine.BackendDisk, false}, {engine.BackendMem, true}, {engine.BackendDisk, true}} {
		name := leg.backend
		if leg.more {
			name += "-update-before-close"
		}
		t.Run(name, func(t *testing.T) {
			backend := leg.backend
			fs := &tableWrites{FS: faultfs.OS}
			dataDir := t.TempDir()
			reg := engine.NewRegistry(&engine.Options{
				Open:       kcore.OpenOptions{BufferArcs: fill},
				Durability: &engine.DurabilityOptions{Dir: dataDir, FS: fs},
			})
			eng, err := reg.OpenBackend("g", base, engine.BackendConfig{Backend: backend, CacheBlocks: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Apply(ups...); err != nil {
				t.Fatal(err)
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := eng.(engine.Checkpointer).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			rep := eng.Report()
			sets, bytes := fs.sets.Load(), fs.bytes.Load()
			ckpt := filepath.Join(dataDir, "g", "ckpt")
			var written int64
			for _, seq := range []string{"0000000000000001", "0000000000000002"} {
				for _, ext := range []string{".nt", ".et", ".crc"} {
					fi, err := os.Stat(filepath.Join(ckpt, seq, "graph"+ext))
					if err != nil {
						t.Fatal(err)
					}
					written += fi.Size()
				}
			}
			if sets != 2 || bytes != written {
				t.Errorf("%d table sets, %d bytes written; want the two checkpoints' %d", sets, bytes, written)
			}
			if leg.more {
				if err := eng.Apply(serve.Update{Op: serve.OpDelete, U: ups[0].U, V: ups[0].V}); err != nil {
					t.Fatal(err)
				}
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			if rep.IO.Writes != 0 {
				t.Errorf("the graph wrote %d blocks of its own, want none: the fold-back is the checkpoint", rep.IO.Writes)
			}
			d := rep.Durability
			if d.Checkpoints != 2 || d.InplaceFoldbacks != 0 || d.CheckpointBlockReads != 2*scan {
				t.Errorf("durability %+v, want 2 checkpoints that read %d blocks each and no in-place fold-back", *d, scan)
			}
			if rep.Disk != nil && rep.Disk.Merges != 1 {
				t.Errorf("%d merges, want the one adoption", rep.Disk.Merges)
			}
			want := int64(2)
			if leg.more {
				want = 3 // the final checkpoint's, at the update's LSN
			}
			if got := fs.sets.Load(); got != want {
				t.Errorf("%d table sets written by the close, want %d", got, want)
			}
			live, err := os.Stat(filepath.Join(dataDir, "g", "live", "graph.et"))
			if err != nil {
				t.Fatal(err)
			}
			if fill, err := os.Stat(filepath.Join(ckpt, "0000000000000002", "graph.et")); err != nil || !os.SameFile(live, fill) {
				t.Errorf("live/ is not the fill checkpoint's tables (%v)", err)
			}
		})
	}
}

// TestCachedGraphRefusesDamagedBlocks: a graph never serves bytes that
// disagree with its header, on the default frames (CacheBlocks 0, which
// used to take the edge blocks it loaded on trust and served the damaged
// list) as through a cache of four. A block damaged after Open — here one
// byte of a neighbour id, in a block the cache does not hold — fails the
// first operation that fetches it, with the checksum error and no
// neighbour list, and keeps failing; blocks around it still read. A fresh
// open finds the same damage at the first fill of that block: the
// sidecar vouches for the tables as they were written, not as they are.
// So a damaged graph still never serves: SemiCore*'s first pass reads
// every block, and an engine's first open, plain or durable, fails.
// Without the sidecar the open's pass over the tables finds it at Open.
func TestCachedGraphRefusesDamagedBlocks(t *testing.T) {
	for _, frames := range []int{0, 4} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			g := buildFrom(t, gen.RMAT(10, 8, .57, .19, .19, 2), 0)
			base := g.Base()
			res, err := kcore.Decompose(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := &kcore.OpenOptions{BlockSize: 512, CacheBlocks: frames}
			flip := func(off int64) {
				t.Helper()
				f, err := os.OpenFile(base+".et", os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var b [1]byte
				if _, err := f.ReadAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x01
				if _, err := f.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
			}
			corrupt := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("%s: %v, want the checksum error", what, err)
				}
			}

			cg, err := kcore.Open(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cg.Close()
			m, err := kcore.NewMaintainer(cg, &kcore.MaintainerOptions{FromResult: res})
			if err != nil {
				t.Fatal(err)
			}
			// Read the tail of the tables into the frames, then damage the
			// first edge-table block: the low byte of its first id. The
			// tables lay the nodes out in a peeling order, so the tail holds
			// the densest core's lists and the head the lowest cores'.
			first, last := layoutEnds(t, base)
			if _, err := cg.Neighbors(last); err != nil {
				t.Fatal(err)
			}
			flip(0)
			nbrs, err := cg.Neighbors(first)
			corrupt(fmt.Sprintf("Neighbors(%d) over a damaged block", first), err)
			if nbrs != nil {
				t.Fatalf("Neighbors(%d) over a damaged block returned a list", first)
			}
			_, err = m.DeleteEdge(first, last)
			corrupt("a maintenance operation that fetches the damaged block", err)
			if _, err := cg.Neighbors(last); err != nil {
				t.Errorf("an undamaged block stopped reading: %v", err)
			}

			// The same damage, after a fresh open: found at the first fill.
			fresh, err := kcore.Open(base, opts)
			if err != nil {
				t.Fatalf("an open through a valid sidecar read the tables: %v", err)
			}
			_, err = fresh.Neighbors(first)
			corrupt("the first fill of the damaged block", err)
			if _, err := fresh.Neighbors(last); err != nil {
				t.Errorf("an undamaged block of a fresh open: %v", err)
			}
			fresh.Close()

			// Never served: an engine's first open decomposes, and fails.
			for _, durable := range []bool{false, true} {
				eo := &engine.Options{Open: kcore.OpenOptions{BlockSize: 512}}
				if durable {
					eo.Durability = &engine.DurabilityOptions{Dir: t.TempDir()}
				}
				reg := engine.NewRegistry(eo)
				_, err := reg.OpenBackend("g", base, engine.BackendConfig{CacheBlocks: frames})
				reg.Close()
				corrupt(fmt.Sprintf("engine first open (durable %v) of a damaged graph", durable), err)
			}

			// No sidecar: the open's pass checks each table against the header.
			if err := os.Remove(base + ".crc"); err != nil {
				t.Fatal(err)
			}
			if bad, err := kcore.Open(base, opts); err == nil {
				bad.Close()
				t.Fatal("Open without a sidecar accepted an edge table whose checksum does not match the header")
			}
		})
	}
}

// record is one node record: its node, where it starts in the node
// table, where its degree and form start and their length, and the
// degree and gap width they give (0 for a list in the variable or the
// Rice form, whose record goes on with its excess).
type record struct {
	id      uint32
	start   int
	at, len int
	deg     uint32
	w       uint8
}

// records decodes base's node table nt in layout order.
func records(t *testing.T, base string, nt []byte) []record {
	t.Helper()
	m, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	var out []record
	id := int64(-1)
	for at := 0; at < len(nt); {
		start := at
		if !m.IDOrder {
			d, k := binary.Varint(nt[at:])
			if k <= 0 {
				t.Fatalf("node table: no id varint at byte %d", at)
			}
			id, at = id+d, at+k
		} else {
			id++
		}
		x, k := binary.Uvarint(nt[at:])
		if k <= 0 {
			t.Fatalf("node table: no varint at byte %d", at)
		}
		r := record{id: uint32(id), start: start, at: at, len: k, deg: uint32(x >> 3), w: uint8(x&7) + 1}
		at += k
		if r.w == 5 || r.w == 6 { // the variable or the Rice form: the excess follows
			_, k := binary.Uvarint(nt[at:])
			if k <= 0 {
				t.Fatalf("node table: no excess varint at byte %d", at)
			}
			r.w, at = 0, at+k
		}
		out = append(out, r)
	}
	return out
}

// recordOf returns node v's record.
func recordOf(t *testing.T, recs []record, v uint32) record {
	t.Helper()
	for _, r := range recs {
		if r.id == v {
			return r
		}
	}
	t.Fatalf("node table: no record of node %d", v)
	return record{}
}

// layoutEnds reports the nodes whose lists start and end base's edge
// table: the first and the last node of the layout with a list.
func layoutEnds(t *testing.T, base string) (first, last uint32) {
	t.Helper()
	g, err := storage.Open(base, stats.NewIOCounter(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	seen := false
	err = g.ScanDegrees(func(v, d uint32) error {
		if d > 0 {
			if !seen {
				first, seen = v, true
			}
			last = v
		}
		return nil
	})
	if err != nil || !seen {
		t.Fatalf("fixture: no list in %s: %v", base, err)
	}
	return first, last
}

// rewriteNodeTable writes nt as base's node table and, when vouch is set,
// a header whose node-table checksum is nt's, so that only the checks of
// the records themselves are left to catch the damage (the sidecar no
// longer folds to the header, so the open is the pass over the tables).
func rewriteNodeTable(t *testing.T, base string, nt []byte, vouch bool) {
	t.Helper()
	if err := os.WriteFile(base+".nt", nt, 0o644); err != nil {
		t.Fatal(err)
	}
	if !vouch {
		return
	}
	m, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	m.NtCRC = crc32.Checksum(nt, crc32.MakeTable(crc32.Castagnoli))
	if err := storage.WriteMetaFS(faultfs.OS, base, m, false); err != nil {
		t.Fatal(err)
	}
}

// stripChecksums rewrites base's header without table checksums and
// removes its sidecar, as an older builder left a graph.
func stripChecksums(t *testing.T, base string) {
	t.Helper()
	m, err := storage.ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	m.HasCRC = false
	if err := storage.WriteMetaFS(faultfs.OS, base, m, false); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(base + ".crc"); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// TestCorruptNodeRecordIsAnError: a node record whose list cannot lie in
// the edge table where the other records leave room for it is an error
// from the first read that meets it, and never a list. Two damages of a
// node table Build writes, each as long as the bytes it overwrites:
//
//   - a corrupt degree: node 5's record overwritten by one of degree
//     0xff000000 (which sized a 16 GiB scratch buffer, and ended the
//     process with "out of memory", while records were read on trust);
//   - a width that moves every later offset: the first fixed-width list
//     of two or more ids at gap width 1 recorded at width 2, so every
//     list after it is placed too late and the last ends past the edge
//     table (the fixture's lists of wider gaps all take the Rice form).
//
// After an open the sidecar vouched for, the block checksum catches
// either first, on the default frames as through a cache of four. Under
// a header whose checksum vouches for the damaged node table, and under
// one without checksums and no sidecar, the open's pass builds the node
// index from the damaged records and only their own checks are left: the
// corrupt degree must fail that open naming node 5 (a list must end
// inside the edge table), the moved width naming the edge table (the
// lists must end where it does). The fixture is laid out in a peeling
// order, whose records also name their nodes: a third damage
// repeats the id of the record before one, and must fail naming the
// repeat.
func TestCorruptNodeRecordIsAnError(t *testing.T) {
	edges := gen.RMAT(10, 8, .57, .19, .19, 2)
	for _, tc := range []struct {
		name, want string
		damage     func(nt []byte, recs []record)
	}{
		{"degree", "node 5", func(nt []byte, recs []record) {
			copy(nt[recordOf(t, recs, 5).at:], binary.AppendUvarint(nil, 0xff000000<<3))
		}},
		{"duplicate", "a second time", func(nt []byte, recs []record) {
			for _, r := range recs[1:] {
				if r.at-r.start == 1 {
					nt[r.start] = 0 // an id delta of 0
					return
				}
			}
			t.Fatal("fixture: no record with a one-byte id delta")
		}},
		{"width", "-byte edge table", func(nt []byte, recs []record) {
			for _, r := range recs {
				if r.deg >= 2 && r.w == 1 {
					nt[r.at] |= 1
					return
				}
			}
			t.Fatal("fixture: no list of two or more ids at gap width 1")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// damaged builds the graph, opens it on the given frames and
			// damages its node table under the open handle.
			damaged := func(frames int) (base string, g *kcore.Graph, nt []byte) {
				base = buildFrom(t, edges, 0).Base()
				g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: frames})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				if nt, err = os.ReadFile(base + ".nt"); err != nil {
					t.Fatal(err)
				}
				tc.damage(nt, records(t, base, nt))
				return base, g, nt
			}
			for _, frames := range []int{0, 4} {
				base, cg, nt := damaged(frames)
				rewriteNodeTable(t, base, nt, false)
				nbrs, err := cg.Neighbors(5)
				if err == nil || nbrs != nil || !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("CacheBlocks %d: Neighbors(5) = %d neighbours, %v; want the checksum error and no list", frames, len(nbrs), err)
				}
				if _, err := cg.Degree(5); err == nil {
					t.Errorf("CacheBlocks %d: Degree(5) read the record without complaint", frames)
				}
			}
			for _, vouched := range []bool{true, false} {
				base, _, nt := damaged(0)
				rewriteNodeTable(t, base, nt, vouched)
				if !vouched {
					stripChecksums(t, base)
				}
				if bad, err := kcore.Open(base, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
					if bad != nil {
						bad.Close()
					}
					t.Fatalf("Open of the damaged node table (header checksums %v): %v, want an error naming %s", vouched, err, tc.want)
				}
			}
		})
	}
}

// TestNodeTableDamageIsCaughtByTheIndex: node-table damage that leaves
// every record plausible — one list boundary moved by an arc: one
// record's degree one up and the next record's one down, both lists of
// the same gap width, so every list stays in the edge table, the lists still tile it
// and the degrees still add up — fails the graph's first use with an
// error naming the table: through the block checksums after an open the
// sidecar vouched for (on the default frames and on four), and through
// the whole table's CRC32C, which the pass that reads the node table into
// memory holds to the header's, when there is no sidecar. (The default
// open used to read records on trust and served v's list with v+1's
// first neighbour in it.)
func TestNodeTableDamageIsCaughtByTheIndex(t *testing.T) {
	// caught opens base as the leg says and wants the first use of node
	// v, or the open itself, to fail naming the node table.
	caught := func(t *testing.T, base string, frames int, sidecar bool, v uint32) {
		t.Helper()
		if !sidecar {
			if err := os.Remove(base + ".crc"); err != nil {
				t.Fatal(err)
			}
		}
		g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: frames})
		if err == nil {
			defer g.Close()
			var nbrs []uint32
			nbrs, err = g.Neighbors(v)
			if _, derr := kcore.Decompose(g, nil); derr == nil {
				t.Error("a decomposition read the damaged node table without complaint")
			}
			if err == nil {
				t.Fatalf("Neighbors(%d) over a moved list boundary: %d neighbours and no error", v, len(nbrs))
			}
		}
		if !strings.Contains(err.Error(), base+".nt") {
			t.Fatalf("node %d over a moved list boundary: %v; want an error naming %s.nt", v, err, base)
		}
	}
	legs := []struct {
		name    string
		frames  int
		sidecar bool
	}{{"mem", 0, true}, {"disk", 4, true}, {"no-sidecar", 0, false}}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := buildFrom(t, gen.RMAT(10, 8, .57, .19, .19, 2), 0).Base()
			nt, err := os.ReadFile(base + ".nt")
			if err != nil {
				t.Fatal(err)
			}
			recs := records(t, base, nt)
			// Rewrite records v and v+1 in place: each keeps its varint's
			// length and its width, so the damage moves nothing else.
			moved := func(r record, by int32) []byte {
				return binary.AppendUvarint(nil, uint64(int64(r.deg)+int64(by))<<3|uint64(r.w-1))
			}
			v := 0
			for ; v+1 < len(recs); v++ {
				a, b := recs[v], recs[v+1]
				if a.deg >= 2 && b.deg >= 3 && a.w > 0 && a.w == b.w && len(moved(a, 1)) == a.len && len(moved(b, -1)) == b.len {
					break
				}
			}
			if v+1 == len(recs) {
				t.Fatal("fixture: no two neighbouring lists to move a boundary between")
			}
			copy(nt[recs[v].at:], moved(recs[v], 1))
			copy(nt[recs[v+1].at:], moved(recs[v+1], -1))
			rewriteNodeTable(t, base, nt, false)
			caught(t, base, leg.frames, leg.sidecar, recs[v].id)
		})
	}
}

// deleteInsertRound deletes the edges with SemiDelete*, puts them back
// with SemiInsert*, and reports the block reads of each half.
func deleteInsertRound(tb testing.TB, m *kcore.Maintainer, round []kcore.Edge) (deleteReads, insertReads int64) {
	tb.Helper()
	for _, e := range round {
		info, err := m.DeleteEdge(e.U, e.V)
		if err != nil {
			tb.Fatal(err)
		}
		deleteReads += info.IO.Reads
	}
	for _, e := range round {
		info, err := m.InsertEdge(e.U, e.V)
		if err != nil {
			tb.Fatal(err)
		}
		insertReads += info.IO.Reads
	}
	return deleteReads, insertReads
}

// TestCacheSizeIOLaw is the ruling on the frames Open reads through by
// default (64), as a law: the exact reads of the three decompositions
// (SemiCore first, so its degree pass pays the node table for the index)
// and of a 50-edge SemiDelete* / SemiInsert* round, on a skewed and on a
// chain-ordered graph at two block sizes, are pinned. The law reads
// through testutil.GateFrames frames: the gap-coded tables are about
// half the 4-byte ones, and 30 frames are at least as much smaller than
// each graph's encoded table as the default frames were than its 4-byte
// one (parentBytes; RequireSpill holds every run to it). The frames hold
// edge blocks only, so two frames never read less than the gate's, and
// the sequential SemiCore and SemiCore+ read exactly as much; what more
// frames buy is the re-reads of hub lists that SemiInsert* (and, on the
// BA graph, SemiCore*'s partial passes) revisit — through two frames the
// inserts read strictly more on every row, which is why the default is
// not smaller. On any frames SemiCore* also recomputes a violated node
// behind its cursor at once while the frames hold its list, and through
// two frames that follows another schedule, so the two-frame run is
// pinned exactly instead of compared.
func TestCacheSizeIOLaw(t *testing.T) {
	for _, fx := range []struct {
		name        string
		build       func(testing.TB) (string, []kcore.Edge)
		parentBytes int64 // the 4-byte table, 4 bytes an arc
	}{
		{"rmat13", testutil.GateGraph, testutil.GateV1Bytes},
		{"ba", func(t testing.TB) (string, []kcore.Edge) {
			edges := gen.BarabasiAlbert(8000, 6, 3)
			base := filepath.Join(t.TempDir(), "ba")
			if err := kcore.Build(base, kcore.SliceEdges(edges), nil); err != nil {
				t.Fatal(err)
			}
			return base, edges
		}, 382344},
	} {
		t.Run(fx.name, func(t *testing.T) {
			base, edges := fx.build(t)
			round := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
			rand.New(rand.NewSource(23)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			round = round[:50]
			// run opens the graph on the given frames and returns the reads
			// of SemiCore, SemiCore+, SemiCore*, the deletes and the
			// inserts, the open's sidecar read left out.
			run := func(t *testing.T, blockSize, frames int) [5]int64 {
				g, err := kcore.Open(base, &kcore.OpenOptions{BlockSize: blockSize, CacheBlocks: frames})
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				var got [5]int64
				var star *kcore.Result
				for i, algo := range []kcore.Algorithm{kcore.SemiCoreBasic, kcore.SemiCorePlus, kcore.SemiCoreStar} {
					if star, err = kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: algo}); err != nil {
						t.Fatal(err)
					}
					got[i] = star.Info.IO.Reads
				}
				m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: star})
				if err != nil {
					t.Fatal(err)
				}
				got[3], got[4] = deleteInsertRound(t, m, round)
				return got
			}
			for _, blockSize := range []int{4096, 512} {
				t.Run(fmt.Sprintf("B=%d", blockSize), func(t *testing.T) {
					testutil.RequireSpill(t, base, blockSize, testutil.GateFrames, float64(fx.parentBytes)/float64(64*blockSize))
					def, two := run(t, blockSize, testutil.GateFrames), run(t, blockSize, 2)
					t.Logf("%d frames %v, two frames %v", testutil.GateFrames, def, two)
					for i, what := range [5]string{"SemiCore", "SemiCore+", "SemiCore*", "delete", "insert"} {
						pins.Check(t, what+".reads", def[i])
						switch {
						case i == 2:
							pins.Check(t, "2frames."+what+".reads", two[i])
						case i < 2 && two[i] != def[i]:
							t.Errorf("%s read %d blocks through two frames, %d through the gate's: a sequential pass should tie", what, two[i], def[i])
						case i == 4 && two[i] <= def[i]:
							t.Errorf("%s read %d blocks through two frames, %d through the gate's: want strictly more", what, two[i], def[i])
						case two[i] < def[i]:
							t.Errorf("%s read %d blocks through two frames, fewer than the gate's %d", what, two[i], def[i])
						}
					}
				})
			}
		})
	}
}

// BenchmarkCacheSweepRMAT17 re-runs the measurement behind that ruling
// (docs/ARCHITECTURE.md, "Block readers: what a cache buys") on the
// benchmark's fixture: per frame budget — 0 is the default open — the
// block reads and time of SemiCore*, then the reads per edge of 100
// SemiDelete* and 100 SemiInsert*. The open's sidecar read is not in the
// counts.
func BenchmarkCacheSweepRMAT17(b *testing.B) {
	edges := gen.RMAT(17, 12, .57, .19, .19, 1)
	base := filepath.Join(b.TempDir(), "rmat17")
	if err := kcore.Build(base, kcore.SliceEdges(edges), &kcore.BuildOptions{NumNodes: 1 << 17}); err != nil {
		b.Fatal(err)
	}
	round := gen.Build(edges).EdgeList() // u < v, sorted, no duplicates or loops
	rand.New(rand.NewSource(1)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	round = round[:100]
	for _, frames := range []int{0, 2, 16, 64, 512, 1024} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			var decompose, del, ins int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				g, err := kcore.Open(base, &kcore.OpenOptions{CacheBlocks: frames})
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				res, err := kcore.Decompose(g, &kcore.DecomposeOptions{Algorithm: kcore.SemiCoreStar})
				if err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(t0)
				decompose = res.Info.IO.Reads
				m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
				if err != nil {
					b.Fatal(err)
				}
				del, ins = deleteInsertRound(b, m, round)
				g.Close()
			}
			b.ReportMetric(float64(decompose), "decompose-reads")
			b.ReportMetric(float64(del)/float64(len(round)), "delete-reads/edge")
			b.ReportMetric(float64(ins)/float64(len(round)), "insert-reads/edge")
			b.ReportMetric(float64(elapsed.Milliseconds())/float64(b.N), "decompose-ms")
		})
	}
}
