package gen

import (
	"math/rand"

	"kcore/internal/graph"
)

// Social generates a collaboration-network analogue: a preferential-
// attachment backbone (heavy-tailed degrees) overlaid with planted
// cliques, the way co-authorship and friendship graphs contain dense
// groups. The cliques raise kmax well above the attachment parameter k,
// matching the paper's observation that even sparse social graphs (DBLP,
// density 3.31) have three-digit kmax.
func Social(n uint32, k int, cliques int, maxClique int, seed int64) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := BarabasiAlbert(n, k, seed+1)
	for c := 0; c < cliques; c++ {
		size := 4 + r.Intn(maxClique-3)
		members := make([]uint32, size)
		for i := range members {
			members[i] = uint32(r.Intn(int(n)))
		}
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if members[i] != members[j] {
					edges = append(edges, graph.Edge{U: members[i], V: members[j]})
				}
			}
		}
	}
	return edges
}
