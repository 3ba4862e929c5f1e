// Command gengraph generates a synthetic graph — either one of the 12
// Table I dataset analogues or a parameterised generator family — and
// writes it in the on-disk node-table/edge-table format (and optionally
// as a text edge list).
//
// Usage:
//
//	gengraph -dataset twitter-sim -out /data/twitter
//	gengraph -family rmat -scale 16 -factor 20 -seed 7 -out /data/r
//	gengraph -family web -scale 14 -factor 8 -chains 60 -chainlen 200 -out /data/w
package main

import (
	"flag"
	"fmt"
	"os"

	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/graphio"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset analogue name (e.g. uk-sim); overrides -family")
		family   = flag.String("family", "", "generator family: er, ba, rmat, web, social, smallworld")
		out      = flag.String("out", "", "output path prefix (required)")
		textOut  = flag.String("text", "", "also write a text edge list to this path")
		n        = flag.Uint("n", 10000, "nodes (er, ba, social, smallworld)")
		m        = flag.Int("m", 50000, "edges (er)")
		k        = flag.Int("k", 4, "attachment/lattice degree (ba, social, smallworld)")
		scale    = flag.Int("scale", 12, "log2 nodes (rmat, web)")
		factor   = flag.Int("factor", 8, "edge factor (rmat, web)")
		chains   = flag.Int("chains", 40, "appendage chains (web)")
		chainlen = flag.Int("chainlen", 100, "appendage chain length (web)")
		cliques  = flag.Int("cliques", 20, "planted cliques (social)")
		beta     = flag.Float64("beta", 0.1, "rewiring probability (smallworld)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gengraph: -out is required")
		os.Exit(2)
	}

	var edges []graph.Edge
	switch {
	case *dataset != "":
		d, err := gen.ByName(*dataset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
			os.Exit(1)
		}
		edges = d.Make()
	case *family != "":
		switch *family {
		case "er":
			edges = gen.ErdosRenyi(uint32(*n), *m, *seed)
		case "ba":
			edges = gen.BarabasiAlbert(uint32(*n), *k, *seed)
		case "rmat":
			edges = gen.RMAT(*scale, *factor, 0.57, 0.19, 0.19, *seed)
		case "web":
			edges = gen.WebGraph(*scale, *factor, *chains, *chainlen, *seed)
		case "social":
			edges = gen.Social(uint32(*n), *k, *cliques, 12, *seed)
		case "smallworld":
			edges = gen.SmallWorld(uint32(*n), *k, *beta, *seed)
		default:
			fmt.Fprintf(os.Stderr, "gengraph: unknown family %q\n", *family)
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "gengraph: one of -dataset or -family is required")
		os.Exit(2)
	}

	g := gen.Build(edges)
	if err := storage.WriteGraph(faultfs.OS, *out, g, stats.NewIOCounter(0), false); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
	if *textOut != "" {
		if err := graphio.WriteText(*textOut, g); err != nil {
			fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
}
