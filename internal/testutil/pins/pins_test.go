package pins

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerNamesPinningTests holds every ledger line to a package whose
// TestMain hands over to Main and whose test files declare the line's
// test, so that a mistyped package or test fails even a run narrowed to
// other tests, and a line of a package no Main checks fails at all.
func TestLedgerNamesPinningTests(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, module, err := moduleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	pins, err := parse(filepath.Join(root, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	for k, count := range pins {
		files, err := filepath.Glob(filepath.Join(root, strings.TrimPrefix(k.pkg, module), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var src strings.Builder
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(data)
		}
		top, _, _ := strings.Cut(k.test, "/")
		if !strings.Contains(src.String(), "func TestMain(m *testing.M) { pins.Main(m) }") || !strings.Contains(src.String(), "func "+top+"(") {
			t.Errorf("%s: package %s hands no TestMain to pins.Main or declares no %s", k.line(count), k.pkg, top)
		}
	}
}
