package gen

import (
	"testing"

	"kcore/internal/graph"
	"kcore/internal/verify"
)

func TestSampleGraphMatchesPaper(t *testing.T) {
	g := SampleGraph()
	if g.NumNodes() != 9 || g.NumEdges() != 15 {
		t.Fatalf("sample graph n=%d m=%d, want 9/15", g.NumNodes(), g.NumEdges())
	}
	// Fig. 2 Init row: core estimates start at the degrees.
	wantDeg := []uint32{3, 3, 4, 6, 3, 5, 3, 2, 1}
	for v, w := range wantDeg {
		if g.Degree(uint32(v)) != w {
			t.Fatalf("deg(v%d) = %d, want %d", v, g.Degree(uint32(v)), w)
		}
	}
	// Example 2.1: final core numbers.
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 1}
	got := verify.CoresByRepeatedRemoval(g)
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("core(v%d) = %d, want %d", v, got[v], w)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cases := map[string]func() []graph.Edge{
		"er":     func() []graph.Edge { return ErdosRenyi(100, 300, 1) },
		"ba":     func() []graph.Edge { return BarabasiAlbert(100, 3, 1) },
		"rmat":   func() []graph.Edge { return RMAT(7, 4, 0.57, 0.19, 0.19, 1) },
		"sw":     func() []graph.Edge { return SmallWorld(100, 3, 0.2, 1) },
		"web":    func() []graph.Edge { return WebGraph(6, 4, 4, 10, 1) },
		"social": func() []graph.Edge { return Social(100, 3, 5, 8, 1) },
	}
	for name, mk := range cases {
		a, b := mk(), mk()
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic edge count", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	// BA graphs with attachment k have min degree >= k for late nodes and
	// a heavy tail; just sanity-check size and connectivity proxies.
	g := Build(BarabasiAlbert(500, 3, 2))
	if g.NumNodes() != 500 {
		t.Fatalf("BA n = %d, want 500", g.NumNodes())
	}
	if g.NumEdges() < 1000 {
		t.Fatalf("BA edges = %d, suspiciously few", g.NumEdges())
	}
	// Web graphs must contain both a 1-shell (dangling chains) and a
	// solid core: kmax >= 3 and some core-1 nodes.
	wg := Build(WebGraph(8, 6, 6, 30, 3))
	cores := verify.CoresByRepeatedRemoval(wg)
	kmax := verify.Kmax(cores)
	if kmax < 3 {
		t.Fatalf("web graph kmax = %d, want >= 3", kmax)
	}
	ones := 0
	for _, c := range cores {
		if c == 1 {
			ones++
		}
	}
	if ones < 30 {
		t.Fatalf("web graph has %d core-1 nodes, want a visible 1-shell", ones)
	}
	// Social graphs: planted cliques push kmax above the attachment k.
	sg := Build(Social(400, 3, 15, 10, 5))
	if k := verify.Kmax(verify.CoresByRepeatedRemoval(sg)); k <= 3 {
		t.Fatalf("social kmax = %d, want > 3 (planted cliques)", k)
	}
}

func TestRegistry(t *testing.T) {
	if len(Datasets) != 12 {
		t.Fatalf("registry has %d datasets, want 12", len(Datasets))
	}
	if len(ByGroup(Small)) != 6 || len(ByGroup(Big)) != 6 {
		t.Fatal("groups must split 6/6")
	}
	seen := map[string]bool{}
	for _, d := range Datasets {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		seen[d.Name] = true
		if d.PaperV <= 0 || d.PaperE <= 0 || d.PaperKmax <= 0 {
			t.Fatalf("%s: missing Table I row data", d.Name)
		}
	}
	d, err := ByName("twitter-sim")
	if err != nil || d.Paper != "Twitter" {
		t.Fatalf("ByName(twitter-sim) = %+v, %v", d, err)
	}
	if _, err := ByName("Twitter"); err != nil {
		t.Fatal("lookup by Table I name failed")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSmallDatasetsBuild(t *testing.T) {
	for _, d := range ByGroup(Small) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Graph()
			if g.NumNodes() < 1000 {
				t.Fatalf("%s: n = %d, too small to be interesting", d.Name, g.NumNodes())
			}
			if g.NumEdges() < int64(g.NumNodes()) {
				t.Fatalf("%s: m = %d below n = %d", d.Name, g.NumEdges(), g.NumNodes())
			}
		})
	}
}

func TestNumNodesEmpty(t *testing.T) {
	if NumNodes(nil) != 0 {
		t.Fatal("empty edge list must imply zero nodes")
	}
}
