// Package pins is the ledger of the exact counts the I/O gates pin:
// testdata/iopins.txt at the module root, one line a pin,
//
//	<package> <test or test/subtest> <metric> <count>
//
// A gate reads its pin with Check, which fails on any other count and
// prints the line that would pin what it got, so a re-pin is a paste of
// the printed lines and shows as one diff of one file. A package whose
// tests read pins hands its TestMain to Main, which fails a complete run
// that left one of the package's lines unread: a pin cannot outlive its
// test unseen.
//
// It imports the standard library only, so that the in-package tests of
// every package, internal/storage's among them, can use it.
package pins

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// ledgerFile is the ledger's path under the module root.
const ledgerFile = "testdata/iopins.txt"

// key names one pin.
type key struct{ pkg, test, metric string }

// line is the ledger line pinning k at count.
func (k key) line(count int64) string {
	return fmt.Sprintf("%s %s %s %d", k.pkg, k.test, k.metric, count)
}

var (
	loadOnce sync.Once
	loadErr  error
	pkg      string // the import path of the package under test
	ledger   map[key]int64

	mu   sync.Mutex
	read = map[key]bool{}
	ran  = map[string]bool{} // the tests and subtests that read a pin
)

// load parses the ledger once, from the module root above the working
// directory, which go test sets to the package's directory.
func load() error {
	loadOnce.Do(func() {
		dir, err := os.Getwd()
		if err == nil {
			var root, module string
			if root, module, err = moduleRoot(dir); err == nil {
				pkg = module + strings.TrimPrefix(filepath.ToSlash(dir), filepath.ToSlash(root))
				ledger, err = parse(filepath.Join(root, ledgerFile))
			}
		}
		loadErr = err
	})
	return loadErr
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod, and the module path it declares.
func moduleRoot(dir string) (root, module string, err error) {
	for root = dir; ; root = filepath.Dir(root) {
		if data, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return root, strings.TrimSpace(m), nil
				}
			}
		}
		if filepath.Dir(root) == root {
			return "", "", fmt.Errorf("pins: no module above %s", dir)
		}
	}
}

// parse reads a ledger: blank lines and lines starting with # aside,
// every line is one pin, and no key appears twice.
func parse(path string) (map[key]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	pins := map[key]int64{}
	for n, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		count, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if len(f) != 4 || err != nil {
			return nil, fmt.Errorf("pins: %s:%d: want <package> <test> <metric> <count>, got %q", path, n+1, line)
		}
		k := key{f[0], f[1], f[2]}
		if _, dup := pins[k]; dup {
			return nil, fmt.Errorf("pins: %s:%d: %s is pinned twice", path, n+1, line)
		}
		pins[k] = count
	}
	return pins, nil
}

// Check fails t unless got is the count the ledger pins for t's test and
// metric. The failure names the key, the pinned and the got count, and
// the ledger line that would pin got.
func Check(t testing.TB, metric string, got int64) {
	t.Helper()
	if err := load(); err != nil {
		t.Fatal(err)
	}
	k := key{pkg, t.Name(), metric}
	mu.Lock()
	read[k], ran[k.test] = true, true
	mu.Unlock()
	name := k.pkg + " " + k.test + " " + metric
	if want, ok := ledger[k]; !ok {
		t.Errorf("%s: got %d, and %s has no pin for it; to pin it, add the line\n%s", name, got, ledgerFile, k.line(got))
	} else if got != want {
		t.Errorf("%s: got %d, pinned at %d; to re-pin, replace its line in %s with\n%s", name, got, want, ledgerFile, k.line(got))
	}
}

// Main runs the package's tests and, if they pass, fails the run when
// the ledger holds a line of this package that no Check read. A run
// narrowed by -run, -skip or -list, or moved off the default seeds by
// testutil's -seed, checks only the lines of the tests and subtests that
// read a pin: a line that names no test passes it, and fails the
// complete run.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := unread(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// unread lists this package's ledger lines that no Check read, of every
// test or, on a narrowed run, of the tests that read a pin.
func unread() error {
	if err := load(); err != nil {
		return err
	}
	narrowed := false
	for _, name := range []string{"test.run", "test.skip", "test.list", "seed"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != f.DefValue {
			narrowed = true
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var lines []string
	for k, count := range ledger {
		if k.pkg == pkg && !read[k] && (!narrowed || ran[k.test]) {
			lines = append(lines, k.line(count))
		}
	}
	if len(lines) == 0 {
		return nil
	}
	sort.Strings(lines)
	return fmt.Errorf("pins: no test read these lines of %s; delete them, or fix the test that should read them:\n%s", ledgerFile, strings.Join(lines, "\n"))
}
