package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// script runs a fixed sequence of filesystem operations through fsys,
// stopping at the first error, and reports how many of its steps
// succeeded. The sequence exercises every boundary kind: create, write,
// sync, rename, syncdir, remove.
func script(dir string, fsys FS) (steps int, err error) {
	step := func(e error) bool {
		if e != nil {
			err = e
			return false
		}
		steps++
		return true
	}
	f, e := fsys.Create(filepath.Join(dir, "a.tmp"))
	if !step(e) {
		return steps, err
	}
	if _, e = f.Write([]byte("hello ")); !step(e) {
		f.Close()
		return steps, err
	}
	if e = f.Sync(); !step(e) {
		f.Close()
		return steps, err
	}
	if _, e = f.Write([]byte("world")); !step(e) {
		f.Close()
		return steps, err
	}
	if e = f.Close(); !step(e) {
		return steps, err
	}
	if e = fsys.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); !step(e) {
		return steps, err
	}
	if e = fsys.SyncDir(dir); !step(e) {
		return steps, err
	}
	if e = fsys.Remove(filepath.Join(dir, "a")); !step(e) {
		return steps, err
	}
	return steps, nil
}

func TestInjectorPassthroughCountsBoundaries(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	if _, err := script(dir, inj); err != nil {
		t.Fatalf("unarmed script failed: %v", err)
	}
	// create, 2 writes, sync, rename, syncdir, remove = 7 boundaries
	// (close is not a boundary), each with the file it hit.
	tmp, a := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")
	want := []Boundary{{"create", tmp}, {"write", tmp}, {"sync", tmp}, {"write", tmp}, {"rename", tmp}, {"syncdir", dir}, {"remove", a}}
	if got := inj.Boundaries(); !slices.Equal(got, want) {
		t.Fatalf("Boundaries = %v, want %v", got, want)
	}
}

func TestInjectorCrashSweep(t *testing.T) {
	probe := NewInjector(OS)
	script(t.TempDir(), probe) //nolint:errcheck
	total := int64(len(probe.Boundaries()))
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		inj := NewInjector(OS)
		inj.Arm(k, Crash)
		if _, err := script(dir, inj); !errors.Is(err, ErrCrashed) {
			t.Fatalf("arm %d: script error = %v, want ErrCrashed", k, err)
		}
		if !inj.Crashed() {
			t.Fatalf("arm %d: injector not crashed", k)
		}
		// Everything is dead after the crash.
		if _, err := inj.Create(filepath.Join(dir, "late")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("arm %d: post-crash Create = %v, want ErrCrashed", k, err)
		}
		if _, err := inj.ReadFile(filepath.Join(dir, "a.tmp")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("arm %d: post-crash ReadFile = %v, want ErrCrashed", k, err)
		}
		if err := inj.Finalize(); err != nil {
			t.Fatalf("arm %d: Finalize: %v", k, err)
		}
		if err := inj.Finalize(); err != nil {
			t.Fatalf("arm %d: second Finalize: %v", k, err)
		}
		// Worst-case damage model: only synced bytes survive in whichever
		// name the file legally has, and an un-SyncDir'd rename reverts.
		checkWorstCase(t, k, dir)
	}
}

// checkWorstCase asserts the post-crash tree for the script when armed
// at boundary k with an unseeded (worst-case) injector.
func checkWorstCase(t *testing.T, k int64, dir string) {
	t.Helper()
	tmp, a := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")
	read := func(p string) (string, bool) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", false
		}
		return string(b), true
	}
	tc, tok := read(tmp)
	ac, aok := read(a)
	switch {
	case k == 1: // crash at create: nothing exists
		if tok || aok {
			t.Fatalf("arm 1: file exists after crashed create (tmp=%v a=%v)", tok, aok)
		}
	case k <= 3: // crash at first write or its sync: file empty
		if !tok || tc != "" {
			t.Fatalf("arm %d: tmp = %q,%v; want empty file", k, tc, tok)
		}
	case k <= 5: // crash at second write or rename: only synced prefix
		if !tok || tc != "hello " {
			t.Fatalf("arm %d: tmp = %q,%v; want synced prefix", k, tc, tok)
		}
		if aok {
			t.Fatalf("arm %d: rename happened before its boundary", k)
		}
	case k == 6: // crash at syncdir: rename reverts (worst case)
		if !tok || tc != "hello " {
			t.Fatalf("arm 6: tmp = %q,%v; want reverted rename with synced prefix", tc, tok)
		}
		if aok {
			t.Fatalf("arm 6: un-fsynced rename survived worst-case Finalize")
		}
	case k == 7: // crash at remove: rename is durable, file intact
		if !aok || ac != "hello " {
			t.Fatalf("arm 7: a = %q,%v; want durable rename with synced prefix", ac, aok)
		}
		if tok {
			t.Fatalf("arm 7: tmp still present after durable rename")
		}
	}
}

func TestInjectorFailModeIsTransient(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.Arm(2, Fail) // first write fails once
	f, err := inj.Create(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write = %v, want ErrInjected", err)
	}
	// The fault is transient: the same handle keeps working.
	if _, err := f.Write([]byte("y")); err != nil {
		t.Fatalf("write after transient fault: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.Crashed() {
		t.Fatal("Fail mode crashed the filesystem")
	}
	if b, err := os.ReadFile(filepath.Join(dir, "b")); err != nil || string(b) != "y" {
		t.Fatalf("file = %q, %v; want %q", b, err, "y")
	}
}

func TestInjectorSeededKeepsDamageWithinEnvelope(t *testing.T) {
	// Seeded mode may keep any prefix of the unsynced tail and may keep
	// un-fsynced renames, but must never exceed what was written nor lose
	// synced bytes.
	for seed := int64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		inj := NewInjector(OS).WithRand(seed)
		inj.Arm(5, Crash) // crash at the rename boundary
		script(dir, inj)  //nolint:errcheck
		if err := inj.Finalize(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "a.tmp"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := string(b)
		want := "hello world"
		if len(got) < len("hello ") || got != want[:len(got)] {
			t.Fatalf("seed %d: file %q is not a prefix of %q covering the synced part", seed, got, want)
		}
	}
}
