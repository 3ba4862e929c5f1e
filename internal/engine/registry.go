package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kcore"
	"kcore/internal/serve"
	"kcore/internal/stats"
)

// Options carries the shared defaults a Registry applies to every engine
// it creates. The zero value selects the serve and open defaults.
type Options struct {
	// Serve tunes every session the registry starts; each session
	// counts for its own graph. In data-dir mode OnApply is the
	// durability shell's: it writes the log from it.
	Serve serve.Options
	// Open tunes every graph the registry opens from disk.
	Open kcore.OpenOptions
	// Durability, when set, puts the registry in data-dir mode: every
	// opened graph is wrapped in the WAL + checkpoint layer under
	// Durability.Dir/<name>/, Recover rebuilds graphs from that state on
	// startup, and the data dir is flock-protected against double-open.
	Durability *DurabilityOptions
}

// entry is one registered graph. The engine owns everything under it:
// closing it releases the graph too.
type entry struct {
	name string
	base string // path prefix the graph was opened from, "" for registered engines
	eng  Engine
	dir  string // durable graph directory, removed on Drop; "" otherwise
}

// Registry owns a set of named engines sharing option defaults, so one
// process can open, serve, and drop many graphs at runtime. All methods
// are safe for concurrent use; engine lifetimes are coordinated — Drop
// and Close drain each engine (publishing its final epoch) before the
// backing graph is released.
type Registry struct {
	opts Options
	dur  *DurabilityOptions // resolved copy of opts.Durability, nil when off

	mu          sync.RWMutex
	byName      map[string]*entry
	unrecovered map[string]error // Recover's failures, as ErrUnrecovered refusals
	closed      bool

	lockMu   sync.Mutex
	lockFile *os.File // data-dir flock, held for the registry's lifetime
}

// NewRegistry creates an empty registry with the given defaults (nil
// selects all defaults).
func NewRegistry(opts *Options) *Registry {
	var o Options
	if opts != nil {
		o = *opts
	}
	r := &Registry{opts: o, byName: make(map[string]*entry), unrecovered: make(map[string]error)}
	if o.Durability != nil {
		d := o.Durability.withDefaults()
		r.dur = &d
	}
	return r
}

// validName reports whether name is acceptable: URL-path and filename
// safe, 1-64 chars of [A-Za-z0-9._-].
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// reserve claims name in the table (with a nil entry) so the expensive
// open/decompose work can run outside the lock without a racing Open
// taking the same name. A name Recover could not bring back is refused
// while its directory is there.
func (r *Registry) reserve(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if !validName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := r.unrecovered[name]; err != nil {
		if _, serr := os.Lstat(filepath.Join(r.dur.Dir, name)); !os.IsNotExist(serr) {
			return err
		}
		delete(r.unrecovered, name) // moved aside: the name starts over
	}
	r.byName[name] = nil
	return nil
}

// commit installs the finished entry (or releases the reservation when
// e is nil). It reports false when the registry was closed while the
// entry was being built; the caller must then shut the entry down
// itself — Close has already swept the table and will not see it.
func (r *Registry) commit(name string, e *entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e == nil {
		delete(r.byName, name)
		return true
	}
	if r.closed {
		return false
	}
	r.byName[name] = e
	return true
}

// install reserves name, runs build outside the lock (it is the
// expensive part: opening, decomposing, replaying), and registers the
// entry build returns. It is the one way into the table: a plain or
// durable open, a recovered graph and a registered follower all come
// through here, so a failed build always releases the reservation and an
// entry that finishes after Close is always shut down.
func (r *Registry) install(name string, build func() (*entry, error)) (Engine, error) {
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	e, err := build()
	if err != nil {
		r.commit(name, nil)
		return nil, err
	}
	e.name = name
	if !r.commit(name, e) {
		e.eng.Close() //nolint:errcheck // ErrClosed wins
		return nil, ErrClosed
	}
	return e.eng, nil
}

// Open opens the on-disk graph at path prefix base, decomposes it, and
// registers a serving engine for it under name. The registry owns the
// graph handle and closes it when the entry is dropped.
func (r *Registry) Open(name, base string) (Engine, error) {
	return r.OpenBackend(name, base, BackendConfig{})
}

// OpenBackend opens the on-disk graph at path prefix base on the frames
// c selects and registers it under name. In data-dir mode the graph is
// copied into, and served from, its durable directory behind the
// durability shell.
func (r *Registry) OpenBackend(name, base string, c BackendConfig) (Engine, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	oo, err := c.OpenOptions(r.opts.Open)
	if err != nil {
		return nil, err
	}
	if r.dur != nil {
		if err := r.ensureDataDir(); err != nil {
			return nil, err
		}
	}
	return r.install(name, func() (*entry, error) {
		if r.dur != nil {
			return r.createDurable(name, base, c, oo)
		}
		l, err := BringUp(base, oo, r.opts.Serve, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: open %s %q: %w", c.Backend, name, err)
		}
		return &entry{base: base, eng: l}, nil
	})
}

// Register installs an externally built engine under name — the
// follower registry mode: a replication follower (internal/replica) or
// any other self-contained Engine joins the registry and is served,
// listed, and dropped like a locally opened graph. The registry takes
// ownership: Drop and Close will Close the engine.
func (r *Registry) Register(name string, eng Engine) error {
	_, err := r.install(name, func() (*entry, error) { return &entry{eng: eng}, nil })
	return err
}

// Get returns the engine registered under name.
func (r *Registry) Get(name string) (Engine, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	if !ok || e == nil {
		return nil, false
	}
	return e.eng, true
}

// Names lists the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for name, e := range r.byName {
		if e != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// GraphInfo summarises one registered graph for listings.
type GraphInfo struct {
	Name string `json:"name"`
	Path string `json:"path,omitempty"`
	// Backend labels the graph's frames ("mem" for the default, "disk"
	// for a -cache-blocks count) or a follower ("follower").
	Backend  string `json:"backend,omitempty"`
	Nodes    uint32 `json:"nodes"`
	Edges    int64  `json:"edges"`
	Kmax     uint32 `json:"kmax"`
	Epoch    uint64 `json:"epoch"`
	Degraded bool   `json:"degraded,omitempty"`
	// Role is "follower" for replication followers; empty for graphs
	// this process writes itself.
	Role  string              `json:"role,omitempty"`
	Serve stats.ServeSnapshot `json:"serve"`
	// Durability carries the WAL/checkpoint counters for graphs in
	// data-dir mode; nil otherwise.
	Durability *stats.WalSnapshot `json:"durability,omitempty"`
	// Replica carries cursor/lag/stream counters for follower graphs;
	// nil otherwise.
	Replica *stats.ReplicaSnapshot `json:"replica,omitempty"`
}

// List snapshots every registered graph, sorted by name. Each entry's
// figures come from the graph's current epoch and per-graph counters.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		if e != nil {
			entries = append(entries, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	infos := make([]GraphInfo, len(entries))
	for i, e := range entries {
		snap, rep := e.eng.Snapshot(), e.eng.Report()
		infos[i] = GraphInfo{
			Name:       e.name,
			Path:       e.base,
			Backend:    rep.Backend,
			Nodes:      snap.NumNodes(),
			Edges:      snap.NumEdges,
			Kmax:       snap.Kmax,
			Epoch:      snap.Seq,
			Serve:      rep.Serve,
			Durability: rep.Durability,
			Replica:    rep.Replica,
		}
		if rep.Durability != nil {
			infos[i].Degraded = rep.Durability.Degraded
		}
		if rep.Replica != nil {
			infos[i].Role = "follower"
		}
	}
	return infos
}

// Drop unregisters name and drains and closes its engine, the backing
// graph with it. In-flight readers holding epochs are unaffected (epochs
// are immutable and self-contained).
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	e, ok := r.byName[name]
	if !ok || e == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.byName, name)
	r.mu.Unlock()
	err := e.eng.Close()
	if e.dir != "" {
		// A dropped durable graph takes its directory with it.
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// Close shuts every engine down concurrently (each drains its pending
// updates and publishes a final epoch) and seals the registry; further
// Open/Register calls fail with ErrClosed. Close is idempotent and
// returns the first shutdown error.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		if e != nil {
			entries = append(entries, e)
		}
	}
	r.byName = make(map[string]*entry)
	r.mu.Unlock()

	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, e *entry) {
			defer wg.Done()
			errs[i] = e.eng.Close()
		}(i, e)
	}
	wg.Wait()
	r.releaseDataDir()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
