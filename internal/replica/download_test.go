package replica_test

import (
	"os"
	"path/filepath"
	"testing"

	"kcore"
	"kcore/internal/replica"
	"kcore/internal/testutil"
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
