package kcore

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kcore/internal/testutil"
)

// topOracle is the answer KCoreTop documents, by a comparison sort: the
// nodes of core >= k, core descending then id ascending, cut to limit.
func topOracle(core []uint32, k uint32, limit int) ([]uint32, int) {
	var nodes []uint32
	for v, c := range core {
		if c >= k {
			nodes = append(nodes, uint32(v))
		}
	}
	slices.SortFunc(nodes, func(a, b uint32) int {
		if c := cmp.Compare(core[b], core[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	count := len(nodes)
	if limit > 0 && limit < count {
		nodes = nodes[:limit]
	}
	return nodes, count
}

// checkTop compares KCoreTop with the oracle on s for k ∈ {0, 1, a random
// level, Kmax, Kmax+1, MaxUint32} and limit ∈ {-1, 0, 1, count−1, count,
// count+1, a random one}.
func checkTop(t *testing.T, rng *rand.Rand, s *CoreSnapshot, what string) {
	t.Helper()
	core := s.Cores()
	ks := []uint32{0, 1, s.Kmax, s.Kmax + 1, math.MaxUint32}
	if s.Kmax > 0 {
		ks = append(ks, uint32(rng.Intn(int(s.Kmax)+1)))
	}
	for _, k := range ks {
		_, count := topOracle(core, k, 0)
		for _, limit := range []int{-1, 0, 1, count - 1, count, count + 1, 1 + rng.Intn(count+1)} {
			want, wantCount := topOracle(core, k, limit)
			got, gotCount := s.KCoreTop(k, limit)
			if gotCount != wantCount || !slices.Equal(got, want) {
				t.Fatalf("%s: KCoreTop(%d, %d) = %d nodes (count %d), want %d (count %d)",
					what, k, limit, len(got), gotCount, len(want), wantCount)
			}
		}
	}
}

// randomCores draws n core numbers of at most kmax, with the top levels
// rare and, when lowHigh is set, at low ids (as on a power-law graph,
// where the hubs come first), else spread uniformly.
func randomCores(rng *rand.Rand, n int, kmax uint32, lowHigh bool) []uint32 {
	core := make([]uint32, n)
	for v := range core {
		c := uint32(rng.ExpFloat64() * float64(kmax) / 6)
		if lowHigh && v < n/16 {
			c = kmax - uint32(rng.Intn(int(kmax)/4+1))
		}
		core[v] = min(c, kmax)
	}
	return core
}

// TestKCoreTopMatchesSortOracle checks KCoreTop's members, order and
// count against a comparison sort on an empty snapshot, on snapshots
// taken from scratch, and along a chain derived by withUpdates, whose
// snapshots share every chunk no update touched.
func TestKCoreTopMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 41)))
	checkTop(t, rng, newCoreSnapshot(nil, 0), "empty")
	for _, n := range []int{1, 7, SnapshotChunkLen, 3*SnapshotChunkLen + 123} {
		for _, lowHigh := range []bool{false, true} {
			core := randomCores(rng, n, uint32(1+rng.Intn(40)), lowHigh)
			s := newCoreSnapshot(core, 0)
			checkTop(t, rng, s, "from scratch")
			for step := range 6 {
				// Move a few nodes, sometimes past the old Kmax or to 0,
				// so levels appear and empty out along the chain.
				var dirty []uint32
				for range 1 + rng.Intn(20) {
					v := uint32(rng.Intn(n))
					core[v] = uint32(rng.Intn(int(s.Kmax) + 3))
					if step%3 == 2 {
						core[v] = 0
					}
					dirty = append(dirty, v)
				}
				s, _ = s.withUpdates(core, dirty, 0)
				if !slices.Equal(s.Cores(), core) {
					t.Fatalf("n=%d step %d: derived snapshot lost an update", n, step)
				}
				checkTop(t, rng, s, "derived")
			}
		}
	}
}

// TestKCoreTopAllocatesOnlyTheAnswer bounds a limited answer on a
// 2^17-node snapshot by what it returns: 4 B per member and 8 B per core
// level for the cursors, plus a fixed slack. Ordering all n nodes to
// answer it would cost 4n = 512 KiB.
func TestKCoreTopAllocatesOnlyTheAnswer(t *testing.T) {
	const n, kmax, limit, slack, runs = 1 << 17, 230, 100, 1 << 10, 20
	rng := rand.New(rand.NewSource(testutil.Seed(t, 43)))
	s := newCoreSnapshot(randomCores(rng, n, kmax, true), 0)
	for _, k := range []uint32{0, s.Kmax / 2, s.Kmax} {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for range runs {
			if nodes, _ := s.KCoreTop(k, limit); len(nodes) != limit {
				t.Fatalf("k=%d: %d nodes, want %d", k, len(nodes), limit)
			}
		}
		runtime.ReadMemStats(&ms1)
		alloc := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
		t.Logf("k=%d limit=%d allocates %d B per answer", k, limit, alloc)
		if bound := uint64(4*limit+8*(s.Kmax+1)) + slack; alloc > bound {
			t.Errorf("k=%d: a limit=%d answer allocates %d B, over 4·limit + 8·(Kmax+1) + %d = %d B",
				k, limit, alloc, slack, bound)
		}
	}
}
