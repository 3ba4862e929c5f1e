package wal

import (
	"fmt"
	"io"
	"path/filepath"

	"kcore/internal/faultfs"
	"kcore/internal/storage"
)

// This file is the exported checkpoint surface replication rides on: a
// leader opens its newest committed checkpoint as a bundle of readable
// files (served as a tar download), and a follower validates the
// downloaded directory before serving from it.

// CheckpointFile is one open file of a checkpoint bundle.
type CheckpointFile struct {
	// Name is the file's base name inside the checkpoint directory
	// (MANIFEST, graph.meta, graph.nt, graph.et, cores).
	Name string
	Size int64
	f    faultfs.File
}

// Reader returns a fresh reader over the whole file.
func (cf CheckpointFile) Reader() io.Reader { return io.NewSectionReader(cf.f, 0, cf.Size) }

// CheckpointHandle is an open committed checkpoint: its parsed manifest
// plus every file, already open. Because the files are opened while the
// checkpoint is pinned against retention, the handle stays readable
// even if a later checkpoint removes the directory.
type CheckpointHandle struct {
	Manifest Manifest
	Files    []CheckpointFile
}

// Close releases every open file.
func (h *CheckpointHandle) Close() error {
	var firstErr error
	for _, cf := range h.Files {
		if err := cf.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OpenNewestCheckpoint opens the newest committed checkpoint whose
// manifest parses, holding open fds on all its files. The caller must
// serialize this with checkpoint retention (the durable engine holds
// its checkpoint mutex) so the chosen directory cannot vanish between
// listing and opening; once open, removal no longer hurts the reader.
func (g *GraphDir) OpenNewestCheckpoint() (*CheckpointHandle, error) {
	cks, err := listCheckpoints(g.fs, g.dir)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for _, ck := range cks {
		h, err := openCheckpoint(g.fs, ck.path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: checkpoint %d: %w", ck.seq, err)
			}
			continue
		}
		return h, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNoCheckpoint
}

func openCheckpoint(fs faultfs.FS, dir string) (*CheckpointHandle, error) {
	man, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	names := CheckpointBundleNames()
	if !man.HasCores {
		names = names[:len(names)-1]
	}
	h := &CheckpointHandle{Manifest: man}
	for _, name := range names {
		path := filepath.Join(dir, name)
		fi, err := fs.Stat(path)
		if err != nil {
			h.Close() //nolint:errcheck // stat error wins
			return nil, err
		}
		f, err := fs.Open(path)
		if err != nil {
			h.Close() //nolint:errcheck // open error wins
			return nil, err
		}
		h.Files = append(h.Files, CheckpointFile{Name: name, Size: fi.Size(), f: f})
	}
	return h, nil
}

// ValidateCheckpointDir reads what a follower's download holds beside
// the tables: the manifest and, when it promises one, the cores file,
// each held to its own checksum. It returns the manifest and the core
// numbers (nil when absent). The tables are left to the open that serves
// them, whose pass holds every block to the header (the bundle carries
// no sidecar), so the download is read once.
func ValidateCheckpointDir(dir string) (Manifest, []uint32, error) {
	m, err := readManifest(faultfs.OS, dir)
	if err != nil || !m.HasCores {
		return m, nil, err
	}
	cores, err := storage.ReadCores(faultfs.OS, filepath.Join(dir, coresName))
	return m, cores, err
}
