package wal

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

const (
	manifestName    = "MANIFEST"
	coresName       = "cores"
	ckptGraphBase   = "graph"
	manifestVersion = 1
)

// Manifest is the committed description of one checkpoint: which LSN
// the adjacency tables capture and their shape. Every checkpoint holds
// the core numbers of its tables beside them.
type Manifest struct {
	Version int
	Seq     uint64
	LSN     uint64
	Nodes   uint32
	Arcs    int64
}

// encodeManifest renders the text manifest with a trailing CRC line
// covering everything above it. Its cores=1 line says the cores file
// rides along, as followers of older trees expect.
func encodeManifest(m Manifest) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "version=%d\n", m.Version)
	fmt.Fprintf(&b, "seq=%d\n", m.Seq)
	fmt.Fprintf(&b, "lsn=%d\n", m.LSN)
	fmt.Fprintf(&b, "nodes=%d\n", m.Nodes)
	fmt.Fprintf(&b, "arcs=%d\n", m.Arcs)
	b.WriteString("cores=1\n")
	body := b.String()
	crc := crc32.Checksum([]byte(body), castagnoli)
	return []byte(fmt.Sprintf("%scrc=%d\n", body, crc))
}

// ParseManifest validates the CRC line and parses the fields, refusing a
// checkpoint stored without its core numbers (no cores=1).
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	cores := false
	text := string(data)
	i := strings.LastIndex(strings.TrimRight(text, "\n"), "\n")
	if i < 0 {
		return m, fmt.Errorf("wal: manifest too short")
	}
	body, crcLine := text[:i+1], strings.TrimSpace(text[i+1:])
	val, ok := strings.CutPrefix(crcLine, "crc=")
	if !ok {
		return m, fmt.Errorf("wal: manifest missing crc line")
	}
	want, err := strconv.ParseUint(val, 10, 32)
	if err != nil {
		return m, fmt.Errorf("wal: manifest crc line: %w", err)
	}
	if got := crc32.Checksum([]byte(body), castagnoli); got != uint32(want) {
		return m, fmt.Errorf("wal: manifest crc %d, want %d", got, want)
	}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return m, fmt.Errorf("wal: malformed manifest line %q", line)
		}
		x, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return m, fmt.Errorf("wal: manifest value %q: %w", line, err)
		}
		// A follower receives the manifest over the network: nothing in it
		// is taken modulo 2^32 or turned negative.
		if (key == "nodes" && x > math.MaxUint32) || (key == "arcs" && x > math.MaxInt64) {
			return m, fmt.Errorf("wal: manifest value %q out of range", line)
		}
		switch key {
		case "version":
			m.Version = int(x)
		case "seq":
			m.Seq = x
		case "lsn":
			m.LSN = x
		case "nodes":
			m.Nodes = uint32(x)
		case "arcs":
			m.Arcs = int64(x)
		case "cores":
			cores = x == 1
		default:
			return m, fmt.Errorf("wal: unknown manifest key %q", key)
		}
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("wal: unsupported manifest version %d", m.Version)
	}
	if !cores {
		return m, fmt.Errorf("wal: a checkpoint without core numbers is retired; %s", storage.Upgrade)
	}
	return m, nil
}

// ckptDirName names a committed checkpoint directory by sequence.
func ckptDirName(seq uint64) string { return fmt.Sprintf("%016x", seq) }

// CheckpointBase is the storage path prefix of the graph tables inside
// the checkpoint directory ckptDir.
func CheckpointBase(ckptDir string) string { return filepath.Join(ckptDir, ckptGraphBase) }

// CheckpointBundleNames reports the files of a checkpoint directory in
// canonical order — what a download carries, and the whitelist a
// follower extracts. The tables' checksum sidecar,
// last of storage.Files, stays out: followers of older trees refuse a tar
// entry they do not know, and a follower's open does without it.
func CheckpointBundleNames() []string {
	names := []string{manifestName}
	for _, ext := range storage.Files[:len(storage.Files)-1] {
		names = append(names, ckptGraphBase+ext)
	}
	return append(names, coresName)
}

// writeCheckpoint persists src (a dyngraph.View, streamed by
// storage.WriteGraph: no copy of the edge set is ever resident) and its
// core numbers as checkpoint seq under root/ckpt. The tables are written
// into a hidden tmp directory, fsynced file by file, then committed
// with a single rename followed by a directory fsync — a crash anywhere
// in between leaves either the previous checkpoints or a complete new
// one, never a half-visible directory.
func writeCheckpoint(fs faultfs.FS, root string, seq, lsn uint64, src graph.Source, cores []uint32, ioCtr *stats.IOCounter) error {
	ckptRoot := filepath.Join(root, "ckpt")
	if err := fs.MkdirAll(ckptRoot, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(ckptRoot, ".tmp-"+ckptDirName(seq))
	if err := fs.RemoveAll(tmp); err != nil {
		return err
	}
	if err := fs.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := storage.WriteGraph(fs, CheckpointBase(tmp), src, ioCtr, true); err != nil {
		return err
	}
	if err := storage.WriteCores(fs, filepath.Join(tmp, coresName), cores); err != nil {
		return err
	}
	man := encodeManifest(Manifest{
		Version: manifestVersion,
		Seq:     seq,
		LSN:     lsn,
		Nodes:   src.NumNodes(),
		Arcs:    src.NumArcs(),
	})
	if err := storage.WriteFile(fs, filepath.Join(tmp, manifestName), man); err != nil {
		return err
	}
	if err := fs.SyncDir(tmp); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(ckptRoot, ckptDirName(seq))); err != nil {
		return err
	}
	return fs.SyncDir(ckptRoot)
}

// ckptEntry locates one committed checkpoint directory.
type ckptEntry struct {
	seq  uint64
	path string
}

// listCheckpoints returns committed checkpoints sorted newest-first.
// Tmp directories and stray names are ignored. Only a ckpt directory
// that does not exist means "none yet": any other failure to list it is
// an error, because a caller told "none" goes on to treat the graph as
// unrecoverable and its directory as free to re-create.
func listCheckpoints(fs faultfs.FS, root string) ([]ckptEntry, error) {
	ckptRoot := filepath.Join(root, "ckpt")
	ents, err := fs.ReadDir(ckptRoot)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: listing checkpoints: %w", err)
	}
	var out []ckptEntry
	for _, e := range ents {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		seq, err := strconv.ParseUint(e.Name(), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, ckptEntry{seq: seq, path: filepath.Join(ckptRoot, e.Name())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out, nil
}

// readManifest loads and checks the manifest of one checkpoint directory.
func readManifest(fs faultfs.FS, ckptDir string) (Manifest, error) {
	data, err := fs.ReadFile(filepath.Join(ckptDir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	return ParseManifest(data)
}
