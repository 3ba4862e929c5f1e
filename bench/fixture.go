package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"kcore"
	"kcore/internal/gen"
)

// Fixture shape: gen.RMAT at scale fixtureScale with the Graph500
// partition probabilities. One fixture: the bounds and the frozen paced
// rates were measured on it and mean nothing on another.
//
// The graph is the same for every seed; -seed drives the traffic on it
// (update stream, paced schedule, read targets, maintenance edges,
// oracle sample). What one update costs depends on the core structure
// of the particular RMAT instance: across ten instances the median
// latency of a 32-edge update request ranged from 4 to 26 ms, which no
// bound could have gated. A benchmark graph is a dataset, like the
// paper's; the seed varies what is done to it.
const (
	fixtureScale   = 17
	rmatEdgeFactor = 12
	rmatA          = 0.57
	rmatB          = 0.19
	rmatC          = 0.19
	graphSeed      = 1
)

// fixture is what the program under test is given: the raw generator
// output handed to kcore.Build, and the canonical base edge list
// (u < v, sorted, deduplicated) that the update stream and the oracle
// are built from. base is computed here, not read back from the built
// files, so the oracle does not depend on the code it checks.
type fixture struct {
	n    uint32
	raw  []kcore.Edge
	base []kcore.Edge
}

func newFixture(scale int) *fixture {
	raw := gen.RMAT(scale, rmatEdgeFactor, rmatA, rmatB, rmatC, graphSeed)
	base := make([]kcore.Edge, 0, len(raw))
	for _, e := range raw {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		base = append(base, e)
	}
	slices.SortFunc(base, cmpEdge)
	base = slices.Compact(base)
	return &fixture{n: 1 << scale, raw: raw, base: base}
}

func cmpEdge(a, b kcore.Edge) int {
	if a.U != b.U {
		if a.U < b.U {
			return -1
		}
		return 1
	}
	if a.V != b.V {
		if a.V < b.V {
			return -1
		}
		return 1
	}
	return 0
}

// build writes the fixture's on-disk graph at path prefix base through
// kcore.Build, pinning the node count so every build of every edge set
// of this fixture (the oracle's too) has the same node range.
func (f *fixture) build(base string, edges []kcore.Edge) error {
	if err := kcore.Build(base, kcore.SliceEdges(edges), &kcore.BuildOptions{NumNodes: f.n}); err != nil {
		return fmt.Errorf("build %s: %w", base, err)
	}
	return nil
}

// graphFiles are the three files kcore.Build leaves at a path prefix.
var graphFiles = []string{".meta", ".nt", ".et"}

// hashGraphFiles hashes the built files in a fixed order.
func hashGraphFiles(base string) (string, error) {
	h := sha256.New()
	for _, ext := range graphFiles {
		f, err := os.Open(base + ext)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hash %s%s: %w", base, ext, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// graphBytes sums the sizes of the built files.
func graphBytes(base string) (int64, error) {
	var total int64
	for _, ext := range graphFiles {
		fi, err := os.Stat(base + ext)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// update is one edge mutation in the wire form POST /update decodes.
type update struct {
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

// makeStream generates count updates in which deletes and inserts
// alternate strictly. Deletes are drawn without replacement from the
// base edge list. Inserts are fresh edges absent from the base and from
// each other: u is an endpoint of a uniformly sampled base edge (so
// degree-biased), v is uniform. Every update is therefore valid in any
// interleaving, no delete/insert pair annihilates in the coalescer, and
// |E| stays constant.
func (f *fixture) makeStream(seed int64, count int) []update {
	r := rand.New(rand.NewSource(seed))
	if count > len(f.base) {
		count = len(f.base) // deletes take at most half the base
	}
	perm := r.Perm(len(f.base))
	fresh := make(map[kcore.Edge]struct{}, count/2)
	out := make([]update, 0, count)
	for i := 0; len(out) < count; i++ {
		d := f.base[perm[i]]
		out = append(out, update{Op: "delete", U: d.U, V: d.V})
		if len(out) == count {
			break
		}
		for {
			src := f.base[r.Intn(len(f.base))]
			u := src.U
			if r.Intn(2) == 1 {
				u = src.V
			}
			v := uint32(r.Intn(int(f.n)))
			if u == v {
				continue
			}
			e := kcore.Edge{U: min(u, v), V: max(u, v)}
			if f.hasBase(e) {
				continue
			}
			if _, dup := fresh[e]; dup {
				continue
			}
			fresh[e] = struct{}{}
			out = append(out, update{Op: "insert", U: u, V: v})
			break
		}
	}
	return out
}

func (f *fixture) hasBase(e kcore.Edge) bool {
	_, ok := sort.Find(len(f.base), func(i int) int { return cmpEdge(e, f.base[i]) })
	return ok
}

// finalEdges is the edge set after the first applied updates of a
// stream: the base minus the deletes plus the inserts.
func (f *fixture) finalEdges(stream []update, applied int) []kcore.Edge {
	deleted := make(map[kcore.Edge]struct{}, applied/2+1)
	out := make([]kcore.Edge, 0, len(f.base))
	for _, u := range stream[:applied] {
		e := kcore.Edge{U: min(u.U, u.V), V: max(u.U, u.V)}
		if u.Op == "delete" {
			deleted[e] = struct{}{}
		} else {
			out = append(out, e)
		}
	}
	for _, e := range f.base {
		if _, gone := deleted[e]; !gone {
			out = append(out, e)
		}
	}
	return out
}

func hashStream(s []update) string {
	h := sha256.New()
	var b [9]byte
	for _, u := range s {
		b[0] = u.Op[0]
		binary.LittleEndian.PutUint32(b[1:], u.U)
		binary.LittleEndian.PutUint32(b[5:], u.V)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opKind is one request type of a traffic mix.
type opKind uint8

const (
	opCore opKind = iota
	opKCore
	opDegeneracy
	opUpdate
)

func (k opKind) isRead() bool { return k != opUpdate }

// mix is a traffic mix: the share of requests that are updates, and how
// many edge updates each update request carries. Reads split 80% core,
// 10% kcore with limit=100, 10% degeneracy.
type mix struct {
	updateShare float64
	updateBatch int
}

// opSource draws requests of a mix from its own seeded generator.
type opSource struct {
	r *rand.Rand
	m mix
}

func newOpSource(seed int64, m mix) *opSource {
	return &opSource{r: rand.New(rand.NewSource(seed)), m: m}
}

// next returns the next request kind and a raw argument; the sender
// reduces the argument to a node id or a k.
func (s *opSource) next() (opKind, uint32) {
	p := s.r.Float64()
	arg := s.r.Uint32()
	if p < s.m.updateShare {
		return opUpdate, arg
	}
	switch q := s.r.Float64(); {
	case q < 0.8:
		return opCore, arg
	case q < 0.9:
		return opKCore, arg
	default:
		return opDegeneracy, arg
	}
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	due  time.Duration // offset from the start of the paced phase
	kind opKind
	arg  uint32
}

// makeSchedule generates a Poisson arrival schedule at rate requests
// per second over dur, with request kinds drawn from the mix.
func makeSchedule(seed int64, m mix, rate float64, dur time.Duration) []arrival {
	src := newOpSource(seed, m)
	var out []arrival
	var t float64 // seconds
	for {
		t += src.r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		kind, arg := src.next()
		out = append(out, arrival{due: due, kind: kind, arg: arg})
	}
}

func hashSchedule(s []arrival) string {
	h := sha256.New()
	var b [13]byte
	for _, a := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(a.due))
		b[8] = byte(a.kind)
		binary.LittleEndian.PutUint32(b[9:], a.arg)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
