// Package kcore is an I/O-efficient core decomposition library for
// web-scale graphs, reproducing Wen, Qin, Zhang, Lin and Yu, "I/O
// Efficient Core Graph Decomposition at Web Scale" (ICDE 2016).
//
// Core decomposition assigns every node v of an undirected graph its core
// number: the largest k such that v belongs to a subgraph in which every
// node has degree at least k. The paper's contribution — and this
// package's default behaviour — is the semi-external algorithm family
// (SemiCore, SemiCore+, SemiCore*) that keeps only O(n) node state in
// memory while streaming the edges from disk, plus incremental
// maintenance (SemiDelete*, SemiInsert, SemiInsert*) that keeps core
// numbers exact as edges are inserted and deleted.
//
// Basic usage:
//
//	err := kcore.Build("/data/mygraph", kcore.SliceEdges(edges), nil)
//	g, err := kcore.Open("/data/mygraph", nil)
//	defer g.Close()
//	res, err := kcore.Decompose(g, nil) // SemiCore*
//	fmt.Println("degeneracy:", res.Kmax)
//
// Incremental maintenance:
//
//	m, err := kcore.NewMaintainer(g, nil)
//	op, err := m.InsertEdge(7, 8) // SemiInsert*
//	op, err = m.DeleteEdge(7, 8)  // SemiDelete*
//	cores := m.Cores()
//
// A Graph and a Maintainer are single-caller: one goroutine at a time.
// For concurrent serving — many readers querying while edge updates
// stream in — use internal/serve's ConcurrentSession (exposed over HTTP
// by cmd/kcored). It publishes immutable CoreSnapshot epochs through an
// atomically-swapped pointer, so readers are lock-free and wait-free,
// while a single writer goroutine coalesces queued updates into batches
// and applies them with the maintenance algorithms; every published
// epoch reflects a consistent prefix of the applied updates. Snapshots
// are chunked and copy-on-write — a publication copies only the chunks
// holding changed core numbers (O(changed), see Maintainer.SnapshotDelta)
// — and immutable forever:
//
//	snap := m.Snapshot()   // *CoreSnapshot: safe to share across goroutines
//	k, _ := snap.CoreOf(7)
//	members := snap.KCore(k)
//
// All disk access is counted in block-granularity I/Os (the external-
// memory model): see Graph.IOStats.
package kcore

import (
	"kcore/internal/graph"
	"kcore/internal/stats"
)

// Edge is an undirected edge between two node ids. Node ids are dense
// uint32 indexes in [0, NumNodes).
type Edge = graph.Edge

// IOStats reports block-level I/O in the external-memory model: Reads and
// Writes count transfers of BlockSize-byte blocks; Sub takes a delta.
type IOStats = stats.IOSnapshot

// RunInfo summarises one algorithm execution: the variant that ran, its
// node-range passes (the paper's l), its neighbour-list loads feeding a
// core recomputation, the per-pass count of changed core numbers, the
// nodes whose core number was rewritten (a sound superset of the exact
// delta, which internal/serve's O(changed) publication copies; nil for a
// full decomposition), the block I/O it performed (a delta), its model
// memory peak and its wall-clock time.
type RunInfo = stats.RunStats
