package replica_test

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/faultfs"
	"kcore/internal/replica"
	"kcore/internal/storage"
	"kcore/internal/testutil"
	"kcore/internal/wal"
)

// TestDamagedDownloadIsRefused has a real leader serve its checkpoint
// with one byte flipped in the edge table, and another leader with one
// flipped in the node table. The follower checks only the manifest and
// the cores before it opens the tables, so that open must refuse the
// download: replica.New fails and leaves no ckpt-* directory behind.
func TestDamagedDownloadIsRefused(t *testing.T) {
	seed := testutil.Seed(t, 913)
	eachReader(t, func(t *testing.T, open kcore.OpenOptions) {
		for _, table := range []string{"graph.et", "graph.nt"} {
			h := startLeader(t, seed)
			paths, err := filepath.Glob(filepath.Join(h.dir, "default", "ckpt", "*", table))
			if err != nil || len(paths) == 0 {
				t.Fatalf("no checkpointed %s: %v", table, err)
			}
			path := paths[len(paths)-1] // the newest, which the leader serves
			data, err := os.ReadFile(path)
			if err == nil {
				data[len(data)/2] ^= 0x40
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			f, err := replica.New(replica.Options{Leader: h.srv.URL, Dir: dir, Open: open, BootstrapRetries: 2})
			if err == nil {
				f.Close()
				t.Fatalf("a checkpoint with a flipped %s byte bootstrapped", table)
			}
			t.Logf("refused: %v", err)
			if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != 0 {
				t.Fatalf("the refused download left %v behind", left)
			}
		}
	})
}

// TestBadCheckpointMetadataIsRefused: the follower holds a download's
// manifest to its tables' header and its cores to their checksum and to
// the tables' decomposition. A leader serving a checkpoint whose manifest
// counts two arcs too many, whose cores file has a flipped byte, or whose
// cores file holds other cores under a valid checksum is refused:
// replica.New fails naming why and leaves no ckpt-* directory behind.
func TestBadCheckpointMetadataIsRefused(t *testing.T) {
	seed := testutil.Seed(t, 917)
	for _, tc := range []struct {
		name, want string
		damage     func(t *testing.T, ckpt string)
	}{
		{"manifest-arcs", "manifest of", func(t *testing.T, ckpt string) {
			path := filepath.Join(ckpt, "MANIFEST")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := wal.ParseManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("version=%d\nseq=%d\nlsn=%d\nnodes=%d\narcs=%d\ncores=1\n", m.Version, m.Seq, m.LSN, m.Nodes, m.Arcs+2)
			crc := crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli))
			if err := os.WriteFile(path, fmt.Appendf(nil, "%scrc=%d\n", body, crc), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"cores-flip", "cores file", func(t *testing.T, ckpt string) {
			path := filepath.Join(ckpt, "cores")
			data, err := os.ReadFile(path)
			if err == nil {
				data[4] ^= 0x01
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"cores-mismatch", engine.ErrCoreMismatch.Error(), func(t *testing.T, ckpt string) {
			path := filepath.Join(ckpt, "cores")
			cores, err := storage.ReadCores(faultfs.OS, path)
			if err == nil {
				cores[0]++
				err = storage.WriteCores(faultfs.OS, path, cores)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := startLeader(t, seed)
			ckpts, err := filepath.Glob(filepath.Join(h.dir, "default", "ckpt", "*"))
			if err != nil || len(ckpts) == 0 {
				t.Fatalf("no checkpoint: %v", err)
			}
			tc.damage(t, ckpts[len(ckpts)-1]) // the newest, which the leader serves
			dir := t.TempDir()
			f, err := replica.New(replica.Options{Leader: h.srv.URL, Dir: dir, BootstrapRetries: 2})
			if err == nil {
				f.Close()
				t.Fatalf("a checkpoint with %s bootstrapped", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refused with %v; want the reason to name %q", err, tc.want)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != 0 {
				t.Fatalf("the refused download left %v behind", left)
			}
		})
	}
}
