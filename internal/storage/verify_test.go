package storage

import (
	"os"
	"path/filepath"
	"testing"

	"kcore/internal/stats"
)

// buildVerified writes a small graph through the Builder (which stamps
// table CRCs into the meta) and returns its base path.
func buildVerified(t *testing.T) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	b, err := NewBuilder(base, 4, stats.NewIOCounter(4096))
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

func TestVerifyAcceptsCleanGraph(t *testing.T) {
	base := buildVerified(t)
	m, err := ReadMeta(base)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasCRC {
		t.Fatal("builder did not stamp table CRCs into the meta")
	}
	if err := Verify(base); err != nil {
		t.Fatalf("Verify on a clean graph: %v", err)
	}
}

// TestVerifyDetectsDamage is the property check for the blockfile audit:
// for every file of the format, truncation and single-bit corruption
// must be detected — either by Verify or when the graph is opened.
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
			if !damageDetected(base) {
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
				if !damageDetected(base) {
					t.Fatalf("bit flip %d in %s not detected", bit, ext)
				}
			}
		})
	}
}

// damageDetected reports whether either Verify or Open notices that the
// graph at base is corrupt.
func damageDetected(base string) bool {
	if err := Verify(base); err != nil {
		return true
	}
	g, err := Open(base, stats.NewIOCounter(4096), nil)
	if err != nil {
		return true
	}
	g.Close() //nolint:errcheck
	return false
}
