package engine

import (
	"fmt"

	"kcore"
)

// Backend names: the spellings of a graph's frame count that kcored's
// -backend flag, the HTTP create route and data dirs' CONFIG files have
// always accepted. There is one block reader either way; the names are
// aliases for how many frames it gets.
const (
	// BackendMem is the default frames (kcore.OpenOptions.CacheBlocks 0,
	// 64 frames); a frame count next to it is ignored, as it always was.
	BackendMem = "mem"
	// BackendDisk is CacheBlocks frames, 1024 when no count is given.
	BackendDisk = "disk"
)

// BackendConfig is the frame count a graph is opened with, as the
// -cache-blocks knob and its -backend alias give it. The zero value is
// the default frames.
type BackendConfig struct {
	// Backend is "", BackendMem or BackendDisk.
	Backend string
	// CacheBlocks is the block cache's frame count; <=0 selects the
	// default: 64 frames, or 1024 under BackendDisk.
	CacheBlocks int
}

// normalize resolves c to the frames it selects, spelled as CONFIG
// files spell them: BackendMem with no count for the default frames,
// BackendDisk with the count otherwise. Unknown names are refused.
func (c BackendConfig) normalize() (BackendConfig, error) {
	switch c.Backend {
	case "":
		c.Backend = BackendMem
		if c.CacheBlocks > 0 {
			c.Backend = BackendDisk
		}
	case BackendMem, BackendDisk:
	default:
		return c, fmt.Errorf("engine: unknown backend %q (want %s or %s)",
			c.Backend, BackendMem, BackendDisk)
	}
	if c.Backend == BackendMem {
		c.CacheBlocks = 0
	} else if c.CacheBlocks <= 0 {
		c.CacheBlocks = 1024
	}
	return c, nil
}

// OpenOptions resolves c over the defaults o into the options a graph's
// tables are opened with — for a graph this process writes and for one
// it follows alike.
func (c BackendConfig) OpenOptions(o kcore.OpenOptions) (kcore.OpenOptions, error) {
	c, err := c.normalize()
	if err != nil {
		return o, err
	}
	o.CacheBlocks = c.CacheBlocks
	return o, nil
}
