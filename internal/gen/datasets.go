package gen

import (
	"fmt"

	"kcore/internal/graph"
	"kcore/internal/memgraph"
)

// Group classifies a dataset into the paper's two experiment groups.
type Group int

const (
	// Small is the paper's group one (DBLP..Orkut): graphs where the
	// in-memory and external baselines are also run.
	Small Group = iota
	// Big is group two (Webbase..Clueweb): graphs where only the
	// semi-external algorithms are feasible.
	Big
)

func (g Group) String() string {
	if g == Small {
		return "small"
	}
	return "big"
}

// Dataset describes one synthetic analogue of a Table I graph.
type Dataset struct {
	// Name is the analogue's identifier, e.g. "twitter-sim".
	Name string
	// Paper is the Table I graph this stands in for.
	Paper string
	// Group selects the experiment group.
	Group Group
	// PaperV, PaperE, PaperKmax record the original Table I row for
	// side-by-side reporting.
	PaperV, PaperE int64
	PaperKmax      int
	// Make generates the edge list deterministically.
	Make func() []graph.Edge
}

// Graph generates and materialises the dataset as a CSR.
func (d Dataset) Graph() *memgraph.CSR { return Build(d.Make()) }

// Datasets is the registry of the 12 Table I analogues, in the paper's
// order. Sizes are scaled ~10^3 down so the full experiment suite runs on
// one machine in minutes; classes (social power-law vs web crawl with
// chain appendages), relative densities and the small/big split follow the
// paper.
var Datasets = []Dataset{
	{
		Name: "dblp-sim", Paper: "DBLP", Group: Small,
		PaperV: 317_080, PaperE: 1_049_866, PaperKmax: 113,
		Make: func() []graph.Edge { return Social(4000, 3, 40, 14, 101) },
	},
	{
		Name: "youtube-sim", Paper: "Youtube", Group: Small,
		PaperV: 1_134_890, PaperE: 2_987_624, PaperKmax: 51,
		Make: func() []graph.Edge { return RMAT(12, 3, 0.60, 0.19, 0.19, 102) },
	},
	{
		Name: "wiki-sim", Paper: "WIKI", Group: Small,
		PaperV: 2_394_385, PaperE: 5_021_410, PaperKmax: 131,
		Make: func() []graph.Edge { return RMAT(13, 2, 0.62, 0.19, 0.15, 103) },
	},
	{
		Name: "cpt-sim", Paper: "CPT", Group: Small,
		PaperV: 3_774_768, PaperE: 16_518_948, PaperKmax: 64,
		Make: func() []graph.Edge { return RMAT(13, 4, 0.57, 0.19, 0.19, 104) },
	},
	{
		Name: "lj-sim", Paper: "LJ", Group: Small,
		PaperV: 3_997_962, PaperE: 34_681_189, PaperKmax: 360,
		Make: func() []graph.Edge { return RMAT(13, 8, 0.57, 0.19, 0.19, 105) },
	},
	{
		Name: "orkut-sim", Paper: "Orkut", Group: Small,
		PaperV: 3_072_441, PaperE: 117_185_083, PaperKmax: 253,
		Make: func() []graph.Edge { return RMAT(12, 28, 0.57, 0.19, 0.19, 106) },
	},
	{
		Name: "webbase-sim", Paper: "Webbase", Group: Big,
		PaperV: 118_142_155, PaperE: 1_019_903_190, PaperKmax: 1506,
		Make: func() []graph.Edge { return WebGraph(15, 8, 60, 100, 107) },
	},
	{
		Name: "it-sim", Paper: "IT", Group: Big,
		PaperV: 41_291_594, PaperE: 1_150_725_436, PaperKmax: 3224,
		Make: func() []graph.Edge { return WebGraph(15, 12, 40, 150, 108) },
	},
	{
		Name: "twitter-sim", Paper: "Twitter", Group: Big,
		PaperV: 41_652_230, PaperE: 1_468_365_182, PaperKmax: 2488,
		Make: func() []graph.Edge { return RMAT(16, 20, 0.57, 0.19, 0.19, 109) },
	},
	{
		Name: "sk-sim", Paper: "SK", Group: Big,
		PaperV: 50_636_154, PaperE: 1_949_412_601, PaperKmax: 4510,
		Make: func() []graph.Edge { return WebGraph(15, 24, 60, 200, 110) },
	},
	{
		Name: "uk-sim", Paper: "UK", Group: Big,
		PaperV: 105_896_555, PaperE: 3_738_733_648, PaperKmax: 5704,
		Make: func() []graph.Edge { return WebGraph(16, 12, 80, 300, 111) },
	},
	{
		Name: "clueweb-sim", Paper: "Clueweb", Group: Big,
		PaperV: 978_408_098, PaperE: 42_574_107_469, PaperKmax: 4244,
		Make: func() []graph.Edge { return WebGraph(17, 10, 100, 350, 112) },
	},
}

// ByName looks a dataset up by its analogue name or its Table I name.
func ByName(name string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Name == name || d.Paper == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// ByGroup returns the datasets of one group, in registry order.
func ByGroup(g Group) []Dataset {
	var out []Dataset
	for _, d := range Datasets {
		if d.Group == g {
			out = append(out, d)
		}
	}
	return out
}

// SampleGraph is the paper's Fig. 1 running example, reconstructed
// edge-by-edge from the algorithm traces in Figs. 2-8 (see
// docs/ARCHITECTURE.md, "Deviations from the paper").
// Core numbers: v0..v3 -> 3, v4..v7 -> 2, v8 -> 1.
func SampleGraph() *memgraph.CSR {
	return Build(SampleGraphEdges())
}

// SampleGraphEdges lists the 15 edges of the Fig. 1 graph.
func SampleGraphEdges() []graph.Edge {
	return []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3},
		{U: 2, V: 3}, {U: 2, V: 4},
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 3, V: 6},
		{U: 4, V: 5},
		{U: 5, V: 6}, {U: 5, V: 7}, {U: 5, V: 8},
		{U: 6, V: 7},
	}
}
