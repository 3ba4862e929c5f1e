package wal

import (
	"errors"
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
	h := &CheckpointHandle{Manifest: man}
	for _, name := range CheckpointBundleNames() {
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

// ErrCores reports a checkpoint's cores file that failed its checksum
// beside a manifest that validated.
var ErrCores = errors.New("wal: checkpoint cores")

// ValidateCheckpointDir reads what a checkpoint (a follower's download, or
// one at recovery) holds beside its tables: the manifest, held to its
// checksum and its counts to the tables' header, and the cores file, held
// to its checksum (failing: ErrCores, next to the manifest). It returns
// the manifest and the core numbers. The tables are left
// to the bring-up that serves them, so a checkpoint is read once.
func ValidateCheckpointDir(fsys faultfs.FS, dir string) (Manifest, []uint32, error) {
	m, err := readManifest(fsys, dir)
	var meta storage.Meta
	if err == nil {
		meta, err = storage.ReadMeta(CheckpointBase(dir))
	}
	if err == nil && (meta.N != m.Nodes || meta.Arcs != m.Arcs) {
		err = fmt.Errorf("wal: manifest of %d nodes and %d arcs, tables of %d and %d", m.Nodes, m.Arcs, meta.N, meta.Arcs)
	}
	if err != nil {
		return m, nil, err
	}
	cores, err := storage.ReadCores(fsys, filepath.Join(dir, coresName))
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrCores, err)
	}
	return m, cores, err
}
