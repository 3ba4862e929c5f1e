package engine

import (
	"fmt"

	"kcore"
)

// Backend names accepted by BackendConfig (and the HTTP create route).
const (
	// BackendMem reads the graph's CSR tables through the default open's
	// few cache frames — the default. Both fold a full buffer back by one
	// rule: in place, or, on a durable graph, by adopting a checkpoint.
	BackendMem = "mem"
	// BackendDisk reads the same tables through a budgeted, checksummed
	// block cache (kcore.OpenOptions.CacheBlocks).
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

// OpenOptions resolves c over the defaults o into the options a graph's
// tables are opened with. Both backends are a kcore.Graph under the same
// serving session and differ only in the block reader chosen here — for
// a graph this process writes and for one it follows alike.
func (c BackendConfig) OpenOptions(o kcore.OpenOptions) (kcore.OpenOptions, error) {
	c, err := c.normalize()
	if err != nil {
		return o, err
	}
	o.CacheBlocks = 0
	if c.Backend == BackendDisk {
		o.CacheBlocks = c.CacheBlocks
		if o.CacheBlocks <= 0 {
			o.CacheBlocks = 1024
		}
	}
	return o, nil
}
