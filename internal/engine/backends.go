package engine

import (
	"fmt"

	"kcore"
	"kcore/internal/diskengine"
	"kcore/internal/stats"
)

// Backend names accepted by BackendConfig (and the HTTP create route).
const (
	// BackendMem is the single-writer in-memory engine (internal/serve
	// over a kcore.Graph) — the default.
	BackendMem = "mem"
	// BackendDisk is the beyond-RAM engine (internal/diskengine):
	// adjacency on disk behind a bounded block cache.
	BackendDisk = "disk"
)

// BackendTyper is the optional engine extension labelling which backend
// serves a graph; every registry-built engine implements it, and /stats
// reports the label.
type BackendTyper interface {
	BackendType() string
}

// AsBackendTyper finds the backend label on e or any wrapped engine.
func AsBackendTyper(e Engine) (BackendTyper, bool) { return as[BackendTyper](e) }

// DiskStatser is the optional engine extension of disk backends: block
// cache economy, overlay fill and merge cost, surfaced under
// /g/{name}/stats.
type DiskStatser interface {
	DiskStats() stats.DiskSnapshot
}

// AsDiskStatser finds disk stats support on e or any wrapped engine.
func AsDiskStatser(e Engine) (DiskStatser, bool) { return as[DiskStatser](e) }

// BackendConfig selects and tunes the backend a graph is opened behind.
// The zero value is the mem backend.
type BackendConfig struct {
	// Backend is BackendMem, BackendDisk, or "" (mem).
	Backend string
	// CacheBlocks is the disk backend's block-cache frame budget;
	// <=0 selects the diskengine default.
	CacheBlocks int
}

// normalize resolves the default backend and rejects unknown names.
func (c BackendConfig) normalize() (BackendConfig, error) {
	switch c.Backend {
	case "":
		c.Backend = BackendMem
	case BackendMem, BackendDisk:
	default:
		return c, fmt.Errorf("engine: unknown backend %q (want %s or %s)",
			c.Backend, BackendMem, BackendDisk)
	}
	return c, nil
}

// backendCtor builds a finished registry entry for one backend kind.
// The driver table below is the single seam new backends plug into —
// the durable path routes on the same names (assembleDurable).
type backendCtor func(r *Registry, name, base string, c BackendConfig) (*entry, error)

var backendCtors = map[string]backendCtor{
	BackendMem:  openMemBackend,
	BackendDisk: openDiskBackend,
}

// OpenBackend opens the on-disk graph at path prefix base behind the
// configured backend and registers it under name. Open is a thin wrapper
// over it; in data-dir mode the engine is additionally wrapped in the
// durability shell, whatever the backend.
func (r *Registry) OpenBackend(name, base string, c BackendConfig) (Engine, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	if r.dur != nil {
		return r.openDurable(name, base, c)
	}
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	e, err := backendCtors[c.Backend](r, name, base, c)
	if err != nil {
		r.commit(name, nil)
		return nil, fmt.Errorf("engine: open %s %q: %w", c.Backend, name, err)
	}
	if !r.commit(name, e) {
		e.shutdown() //nolint:errcheck // ErrClosed wins
		return nil, ErrClosed
	}
	return e.eng, nil
}

func openMemBackend(r *Registry, name, base string, _ BackendConfig) (*entry, error) {
	g, err := kcore.Open(base, &r.opts.Open)
	if err != nil {
		return nil, err
	}
	eng, err := r.start(g)
	if err != nil {
		g.Close() //nolint:errcheck // already failing; start error wins
		return nil, err
	}
	return &entry{name: name, base: base, eng: eng, g: g, ownsGraph: true}, nil
}

func openDiskBackend(r *Registry, name, base string, c BackendConfig) (*entry, error) {
	so := r.opts.Serve
	so.Counters = new(stats.ServeCounters)
	eng, err := diskengine.Open(base, diskengine.Options{
		CacheBlocks: c.CacheBlocks,
		BlockSize:   r.opts.Open.BlockSize,
		Serve:       &so,
	})
	if err != nil {
		return nil, err
	}
	return &entry{name: name, base: base, eng: eng}, nil
}
