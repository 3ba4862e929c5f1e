package storage_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// buildVerified writes a small graph through the Builder (which stamps
// table CRCs into the meta and writes the checksum sidecar) and returns
// its base path: a triangle 0-1-2 and the edge 1-3.
func buildVerified(t *testing.T) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	b, err := storage.NewBuilder(base, 4, stats.NewIOCounter(4096))
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]uint32{{1, 2}, {0, 2, 3}, {0, 1}, {1}}
	for v, nbrs := range lists {
		if err := b.AppendList(uint32(v), nbrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return base
}

// openAndDecompose is the check a stored graph gets before it serves:
// kcore.Open holds the tables to their header (through the sidecar or
// one pass over both), and SemiCore*'s first pass reads every list
// through blocks held to their checksums.
func openAndDecompose(base string) ([]uint32, error) {
	g, err := kcore.Open(base, nil)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		return nil, err
	}
	return res.Core, nil
}

func TestVerifyAcceptsCleanGraph(t *testing.T) {
	base := buildVerified(t)
	for _, sidecar := range []bool{true, false} {
		if !sidecar {
			if err := os.Remove(base + ".crc"); err != nil {
				t.Fatal(err)
			}
		}
		if cores, err := openAndDecompose(base); err != nil || !slices.Equal(cores, []uint32{2, 2, 2, 1}) {
			t.Fatalf("clean graph (sidecar %v): cores %v, %v; want [2 2 2 1]", sidecar, cores, err)
		}
	}
}

// TestVerifyDetectsDamage is the property check for the blockfile audit:
// for every file of the format, truncation and single-bit corruption
// must be detected by the open or the decomposition that follows it.
func TestVerifyDetectsDamage(t *testing.T) {
	for _, ext := range []string{".meta", ".nt", ".et"} {
		t.Run("truncate"+ext, func(t *testing.T) {
			base := buildVerified(t)
			path := base + ext
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Two bytes, not one: losing only the trailing newline of the
			// text header changes nothing semantically.
			if err := os.Truncate(path, fi.Size()-2); err != nil {
				t.Fatal(err)
			}
			if _, err := openAndDecompose(base); err == nil {
				t.Fatalf("truncated %s not detected", ext)
			}
		})
		t.Run("bitflip"+ext, func(t *testing.T) {
			base := buildVerified(t)
			path := base + ext
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for bit := 0; bit < len(data)*8; bit += 7 {
				bad := append([]byte(nil), data...)
				bad[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := openAndDecompose(base); err == nil {
					t.Fatalf("bit flip %d in %s not detected", bit, ext)
				}
			}
		})
	}
}
