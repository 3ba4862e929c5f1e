package engine

import (
	"fmt"

	"kcore"
)

// Backend names accepted by BackendConfig (and the HTTP create route).
const (
	// BackendMem reads the graph's CSR tables one block at a time and
	// compacts a full update buffer into them — the default.
	BackendMem = "mem"
	// BackendDisk reads the same tables through a bounded, checksummed
	// block cache (kcore.OpenOptions.CacheBlocks) and compacts into them
	// by the same rule.
	BackendDisk = "disk"
)

// BackendConfig selects and tunes the backend a graph is opened behind.
// The zero value is the mem backend.
type BackendConfig struct {
	// Backend is BackendMem, BackendDisk, or "" (mem).
	Backend string
	// CacheBlocks is the disk backend's block-cache frame budget;
	// <=0 selects the default (1024).
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

// openGraph opens the graph at base behind the block reader c names:
// both backends are a kcore.Graph under the same serving session, and
// differ only here.
func (r *Registry) openGraph(base string, c BackendConfig) (*kcore.Graph, error) {
	o := r.opts.Open
	o.CacheBlocks = 0
	if c.Backend == BackendDisk {
		o.CacheBlocks = c.CacheBlocks
		if o.CacheBlocks <= 0 {
			o.CacheBlocks = 1024
		}
	}
	return kcore.Open(base, &o)
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
	e, err := r.openEntry(name, base, c)
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

func (r *Registry) openEntry(name, base string, c BackendConfig) (*entry, error) {
	g, err := r.openGraph(base, c)
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
