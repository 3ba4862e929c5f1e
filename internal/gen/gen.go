// Package gen produces deterministic synthetic graphs. The paper evaluates
// on 12 real graphs (Table I) that cannot be redistributed here, so the
// experiments run on seeded generator analogues: preferential-attachment
// and RMAT graphs for the social networks, and web-like graphs (dense RMAT
// cores plus long chains and tendrils, which reproduce the high iteration
// counts the paper reports for UK and Clueweb) for the web crawls.
package gen

import (
	"math/rand"

	"kcore/internal/graph"
	"kcore/internal/memgraph"
)

// ErdosRenyi generates a G(n, m) multigraph sample; duplicates and loops
// are removed downstream by CSR construction, so the realised edge count
// can be slightly below m.
func ErdosRenyi(n uint32, m int, seed int64) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := uint32(r.Intn(int(n)))
		v := uint32(r.Intn(int(n)))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
}

// BarabasiAlbert generates a preferential-attachment graph: each new node
// attaches to k existing nodes chosen proportionally to degree (by the
// repeated-endpoint trick). Produces power-law degree distributions like
// the paper's social networks.
func BarabasiAlbert(n uint32, k int, seed int64) []graph.Edge {
	if n == 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, int(n)*k)
	// Repeated-endpoints list: picking a uniform element is degree-biased.
	targets := make([]uint32, 0, 2*int(n)*k)
	start := uint32(k) + 1
	if start > n {
		start = n
	}
	// Seed clique over the first start nodes.
	for u := uint32(0); u < start; u++ {
		for v := u + 1; v < start; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
			targets = append(targets, u, v)
		}
	}
	for v := start; v < n; v++ {
		for i := 0; i < k; i++ {
			u := targets[r.Intn(len(targets))]
			edges = append(edges, graph.Edge{U: u, V: v})
			targets = append(targets, u, v)
		}
	}
	return edges
}

// RMAT generates a recursive-matrix (Graph500-style) graph with 2^scale
// nodes and approximately edgeFactor * 2^scale edges, with partition
// probabilities a, b, c (d = 1-a-b-c). Skewed parameters produce the
// heavy-tailed structure of social and web graphs.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed int64) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			p := r.Float64()
			switch {
			case p < a:
				// upper-left: nothing to add
			case p < a+b:
				v += bit
			case p < a+b+c:
				u += bit
			default:
				u += bit
				v += bit
			}
		}
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
	}
	return edges
}

// SmallWorld generates a Watts-Strogatz ring lattice over n nodes where
// each node links to its k nearest successors and each link rewires with
// probability beta.
func SmallWorld(n uint32, k int, beta float64, seed int64) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, int(n)*k)
	for v := uint32(0); v < n; v++ {
		for i := 1; i <= k; i++ {
			u := (v + uint32(i)) % n
			if r.Float64() < beta {
				u = uint32(r.Intn(int(n)))
			}
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return edges
}

// WebGraph generates a web-crawl analogue: an RMAT "core" over the first
// 2^coreScale node ids, plus long chains (path appendages hanging off core
// nodes) and degree-2 tendril loops. The chains stretch the convergence of
// the locality fixpoint — the property that gives the paper's UK/Clueweb
// runs their thousands of SemiCore iterations — while the core supplies a
// large kmax.
func WebGraph(coreScale int, edgeFactor int, chains int, chainLen int, seed int64) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	core := RMAT(coreScale, edgeFactor, 0.57, 0.19, 0.19, seed)
	coreN := uint32(1 << coreScale)
	edges := core
	next := coreN
	for c := 0; c < chains; c++ {
		// Anchor each chain at a random core node. Even chains loop back
		// to a second core node (their nodes land in the 2-core); odd
		// chains dangle (1-shell). Appendage ids increase outward while
		// the node scan runs by increasing id, so a dangling chain's core
		// numbers collapse from 2 to 1 one hop per iteration — the slow
		// convergence that gives the paper's web graphs (UK: 2137
		// iterations) their SemiCore cost, and that SemiCore*'s partial
		// computation eliminates.
		anchor := uint32(r.Intn(int(coreN)))
		prev := anchor
		for i := 0; i < chainLen; i++ {
			edges = append(edges, graph.Edge{U: prev, V: next})
			prev = next
			next++
		}
		if c%2 == 0 {
			back := uint32(r.Intn(int(coreN)))
			edges = append(edges, graph.Edge{U: prev, V: back})
		}
	}
	return edges
}

// NumNodes scans an edge list for the implied node count (max id + 1).
func NumNodes(edges []graph.Edge) uint32 {
	var maxID uint32
	for _, e := range edges {
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	if len(edges) == 0 {
		return 0
	}
	return maxID + 1
}

// Build materialises an edge list as a CSR, panicking on malformed input
// (generators are trusted code paths).
func Build(edges []graph.Edge) *memgraph.CSR {
	g, err := memgraph.FromEdges(NumNodes(edges), edges)
	if err != nil {
		panic(err)
	}
	return g
}
