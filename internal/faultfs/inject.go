package faultfs

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// ErrCrashed is returned by every operation on an Injector after a
// simulated crash: from the process's point of view the machine is off.
var ErrCrashed = errors.New("faultfs: simulated crash")

// ErrInjected is the transient failure returned by the armed operation
// in Fail mode.
var ErrInjected = errors.New("faultfs: injected fault")

// Mode selects what happens when the armed operation boundary is hit.
type Mode int

const (
	// Crash kills the simulated process at the boundary: the armed
	// operation does not happen (except for an optional random prefix of
	// an armed write) and every later operation returns ErrCrashed.
	// Finalize then applies the storage-level damage a real crash could
	// leave: unsynced bytes vanish, un-fsynced renames revert.
	Crash Mode = iota
	// Fail makes the armed operation return ErrInjected once; the
	// filesystem keeps working afterwards. This models a transient I/O
	// error the caller must surface without corrupting state.
	Fail
)

type fileState struct {
	written int64 // bytes written through the injector
	synced  int64 // prefix guaranteed durable (advanced by File.Sync)
}

type renameOp struct {
	src, dst string
	durable  bool // a later SyncDir on dir(dst) succeeded
}

// Boundary is one operation boundary an Injector recorded: the operation
// and the file it hit (for a rename, the old path).
type Boundary struct {
	Op   string // create, write, sync, rename, remove, removeall or syncdir
	Path string
}

// Injector wraps an FS and records its operation boundaries (Create,
// Write, Sync, Rename, Remove, RemoveAll, SyncDir). Arm it at boundary k
// to fail or crash there; Boundaries lists what a clean run crosses, so
// a sweep can arm each k = 1..len(Boundaries()) and name it by its
// operation and file. After a crash, Finalize mutates the
// real directory tree into a legal post-crash state: each file written
// through the injector is truncated to its last synced length (plus an
// optional random suffix of the unsynced tail when seeded via WithRand),
// and renames never covered by a SyncDir are reverted.
type Injector struct {
	inner FS

	mu      sync.Mutex
	log     []Boundary // every boundary crossed, in order
	armAt   int64
	mode    Mode
	crashed bool
	fired   bool
	rng     *rand.Rand

	files   map[string]*fileState
	renames []renameOp
	final   bool
}

// NewInjector wraps inner (usually OS). With no Arm call it is a pure
// passthrough that still records boundaries.
func NewInjector(inner FS) *Injector {
	return &Injector{inner: inner, files: make(map[string]*fileState)}
}

// WithRand seeds randomized damage decisions. Without it the injector
// is worst-case deterministic: a crash loses every unsynced byte and
// reverts every un-fsynced rename.
func (in *Injector) WithRand(seed int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(seed))
	return in
}

// Arm schedules the fault at the op-th boundary (1-based). Zero disarms.
func (in *Injector) Arm(op int64, mode Mode) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armAt, in.mode = op, mode
	in.fired = false
}

// Boundaries lists the boundaries crossed so far, in order: Arm(k) hits
// the k-th.
func (in *Injector) Boundaries() []Boundary {
	in.mu.Lock()
	defer in.mu.Unlock()
	return slices.Clone(in.log)
}

// Crashed reports whether the simulated crash has happened.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// boundary records one op and decides its fate. It returns ErrCrashed
// when the process is already dead, ErrInjected exactly once in Fail
// mode, and (nil, true) when this op is the crash point.
func (in *Injector) boundary(op, path string) (err error, crashNow bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrashed, false
	}
	in.log = append(in.log, Boundary{op, path})
	if in.armAt != 0 && int64(len(in.log)) == in.armAt && !in.fired {
		in.fired = true
		if in.mode == Fail {
			return ErrInjected, false
		}
		in.crashed = true
		return nil, true
	}
	return nil, false
}

func (in *Injector) dead() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrashed
	}
	return nil
}

// Create counts a boundary. A crash at it leaves the file uncreated.
func (in *Injector) Create(name string) (File, error) {
	if err, crash := in.boundary("create", name); err != nil || crash {
		if crash {
			return nil, ErrCrashed
		}
		return nil, err
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.files[name] = &fileState{}
	in.mu.Unlock()
	return &injFile{inj: in, f: f, path: name}, nil
}

// Open opens for reading; not a boundary, but dead after a crash.
func (in *Injector) Open(name string) (File, error) {
	if err := in.dead(); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: in, f: f, path: name, ro: true}, nil
}

// Rename counts a boundary; the rename is volatile until a SyncDir on
// the destination's parent directory.
func (in *Injector) Rename(oldpath, newpath string) error {
	if err, crash := in.boundary("rename", oldpath); err != nil || crash {
		if crash {
			return ErrCrashed
		}
		return err
	}
	if err := in.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	in.mu.Lock()
	in.moveTrackedLocked(oldpath, newpath)
	in.renames = append(in.renames, renameOp{src: oldpath, dst: newpath})
	in.mu.Unlock()
	return nil
}

// moveTrackedLocked re-keys tracked file state when a path (or a
// directory prefix containing tracked files) is renamed.
func (in *Injector) moveTrackedLocked(oldpath, newpath string) {
	oldPrefix := oldpath + string(filepath.Separator)
	for p, st := range in.files {
		switch {
		case p == oldpath:
			delete(in.files, p)
			in.files[newpath] = st
		case len(p) > len(oldPrefix) && p[:len(oldPrefix)] == oldPrefix:
			delete(in.files, p)
			in.files[newpath+string(filepath.Separator)+p[len(oldPrefix):]] = st
		}
	}
}

// Remove counts a boundary. Removal is modeled as immediately durable.
func (in *Injector) Remove(name string) error {
	if err, crash := in.boundary("remove", name); err != nil || crash {
		if crash {
			return ErrCrashed
		}
		return err
	}
	if err := in.inner.Remove(name); err != nil {
		return err
	}
	in.mu.Lock()
	delete(in.files, name)
	in.mu.Unlock()
	return nil
}

// RemoveAll counts a boundary. Removal is modeled as immediately durable.
func (in *Injector) RemoveAll(path string) error {
	if err, crash := in.boundary("removeall", path); err != nil || crash {
		if crash {
			return ErrCrashed
		}
		return err
	}
	if err := in.inner.RemoveAll(path); err != nil {
		return err
	}
	in.mu.Lock()
	prefix := path + string(filepath.Separator)
	for p := range in.files {
		if p == path || (len(p) > len(prefix) && p[:len(prefix)] == prefix) {
			delete(in.files, p)
		}
	}
	in.mu.Unlock()
	return nil
}

// MkdirAll is not a boundary (directory creation is modeled durable).
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := in.dead(); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

// ReadDir lists a directory; dead after a crash.
func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if err := in.dead(); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(name)
}

// ReadFile reads a file; dead after a crash.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.dead(); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

// Stat describes a file; dead after a crash.
func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if err := in.dead(); err != nil {
		return nil, err
	}
	return in.inner.Stat(name)
}

// SyncDir counts a boundary; on success every earlier rename whose
// destination sits in this directory becomes durable.
func (in *Injector) SyncDir(name string) error {
	if err, crash := in.boundary("syncdir", name); err != nil || crash {
		if crash {
			return ErrCrashed
		}
		return err
	}
	if err := in.inner.SyncDir(name); err != nil {
		return err
	}
	in.mu.Lock()
	for i := range in.renames {
		if filepath.Dir(in.renames[i].dst) == filepath.Clean(name) {
			in.renames[i].durable = true
		}
	}
	in.mu.Unlock()
	return nil
}

// Finalize applies post-crash damage to the real tree: un-fsynced
// renames are reverted (newest first) and every file written through
// the injector is truncated to its durable prefix — exactly the synced
// length in worst-case mode, or synced plus a random part of the
// unsynced tail when seeded with WithRand. It is a no-op unless a crash
// fired, and is idempotent.
func (in *Injector) Finalize() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.crashed || in.final {
		return nil
	}
	in.final = true
	// Revert volatile renames newest-first so chained renames unwind in
	// order. A seeded injector keeps each rename with probability 1/2
	// (a real journal may or may not have committed it).
	for i := len(in.renames) - 1; i >= 0; i-- {
		r := in.renames[i]
		if r.durable {
			continue
		}
		if in.rng != nil && in.rng.Intn(2) == 0 {
			continue
		}
		if _, err := os.Stat(r.dst); err != nil {
			continue // destination gone (e.g. later removed)
		}
		if _, err := os.Stat(r.src); err == nil {
			continue // source reoccupied; cannot revert
		}
		if err := os.Rename(r.dst, r.src); err != nil {
			return err
		}
		in.moveTrackedLocked(r.dst, r.src)
	}
	// Truncate unsynced tails, in sorted path order for determinism.
	paths := make([]string, 0, len(in.files))
	for p := range in.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		st := in.files[p]
		keep := st.synced
		if in.rng != nil && st.written > st.synced {
			keep += in.rng.Int63n(st.written - st.synced + 1)
		}
		fi, err := os.Stat(p)
		if err != nil {
			continue // never made it to disk, or since removed
		}
		if fi.Size() > keep {
			if err := os.Truncate(p, keep); err != nil {
				return err
			}
		}
	}
	return nil
}

type injFile struct {
	inj  *Injector
	f    File
	path string
	ro   bool
}

func (f *injFile) Write(p []byte) (int, error) {
	err, crash := f.inj.boundary("write", f.path)
	if err != nil {
		return 0, err
	}
	if crash {
		// A torn write: with a seeded injector part of the buffer may hit
		// the file before the lights go out.
		f.inj.mu.Lock()
		rng := f.inj.rng
		f.inj.mu.Unlock()
		if rng != nil {
			if k := rng.Intn(len(p) + 1); k > 0 {
				if n, werr := f.f.Write(p[:k]); werr == nil {
					f.inj.mu.Lock()
					if st := f.inj.files[f.path]; st != nil {
						st.written += int64(n)
					}
					f.inj.mu.Unlock()
				}
			}
		}
		return 0, ErrCrashed
	}
	n, werr := f.f.Write(p)
	if n > 0 {
		f.inj.mu.Lock()
		if st := f.inj.files[f.path]; st != nil {
			st.written += int64(n)
		}
		f.inj.mu.Unlock()
	}
	return n, werr
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.inj.dead(); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *injFile) Sync() error {
	if f.ro {
		return f.f.Sync()
	}
	err, crash := f.inj.boundary("sync", f.path)
	if err != nil {
		return err
	}
	if crash {
		return ErrCrashed
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.inj.mu.Lock()
	if st := f.inj.files[f.path]; st != nil {
		st.synced = st.written
	}
	f.inj.mu.Unlock()
	return nil
}

// Close always closes the real handle (so descriptors and locks are
// released even after a simulated crash) but reports death.
func (f *injFile) Close() error {
	cerr := f.f.Close()
	if err := f.inj.dead(); err != nil {
		return err
	}
	return cerr
}

func (f *injFile) Name() string { return f.path }
