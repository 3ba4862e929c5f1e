// Command kcorequery answers k-core questions about an on-disk graph,
// reusing a saved decomposition snapshot when available (decompose once,
// query forever — the workflow the paper's maintenance section enables).
//
// Usage:
//
//	kcorequery -graph /data/web -snapshot /data/web.snap hist
//	kcorequery -graph /data/web core 42          # core number of node 42
//	kcorequery -graph /data/web nodes 10         # members of the 10-core
//	kcorequery -graph /data/web densest          # best-density core
//	kcorequery -graph /data/web clique           # greedy max clique
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"kcore"
)

func main() {
	var (
		graphBase = flag.String("graph", "", "graph path prefix (required)")
		snapshot  = flag.String("snapshot", "", "decomposition snapshot to reuse (created if absent)")
	)
	flag.Parse()
	if *graphBase == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: kcorequery -graph BASE [-snapshot FILE] <hist|core V|nodes K|densest|clique>")
		os.Exit(2)
	}

	g, err := kcore.Open(*graphBase, nil)
	if err != nil {
		fatal(err)
	}
	defer g.Close()

	res, err := obtainResult(g, *snapshot)
	if err != nil {
		fatal(err)
	}

	switch flag.Arg(0) {
	case "hist":
		hist := kcore.CoreHistogram(res.Core)
		sizes := kcore.CoreSizes(res.Core)
		fmt.Printf("kmax = %d\n", res.Kmax)
		for k := range hist {
			if hist[k] != 0 {
				fmt.Printf("core %3d: %8d nodes (k-core size %d)\n", k, hist[k], sizes[k])
			}
		}
	case "core":
		v, err := argUint(1)
		if err != nil {
			fatal(err)
		}
		if v >= uint64(g.NumNodes()) {
			fatal(fmt.Errorf("node %d out of range [0,%d)", v, g.NumNodes()))
		}
		fmt.Printf("core(%d) = %d\n", v, res.Core[v])
	case "nodes":
		k, err := argUint(1)
		if err != nil {
			fatal(err)
		}
		nodes := kcore.KCoreNodes(res.Core, uint32(k))
		fmt.Printf("%d-core: %d nodes\n", k, len(nodes))
		for i, v := range nodes {
			if i == 50 {
				fmt.Printf("... (%d more)\n", len(nodes)-50)
				break
			}
			fmt.Println(v)
		}
	case "densest":
		k, density, err := g.DensestCore(res.Core)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("densest core: k=%d, density |E|/|V| = %.3f, %d nodes\n",
			k, density, len(kcore.KCoreNodes(res.Core, k)))
	case "clique":
		clique, err := g.ApproxMaxClique(res.Core)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("greedy clique of size %d: %v\n", len(clique), clique)
	default:
		fatal(fmt.Errorf("unknown query %q", flag.Arg(0)))
	}
}

// obtainResult loads the snapshot if present, otherwise decomposes (and
// saves the snapshot for next time when a path was given). Why a file
// that exists was refused is printed before it is overwritten.
func obtainResult(g *kcore.Graph, snapshot string) (*kcore.Result, error) {
	if snapshot != "" {
		res, err := kcore.LoadResult(snapshot, g)
		if err == nil {
			fmt.Fprintf(os.Stderr, "loaded decomposition from %s\n", snapshot)
			return res, nil
		}
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "not using snapshot %s: %v\n", snapshot, err)
		}
	}
	res, err := kcore.Decompose(g, nil)
	if err != nil {
		return nil, err
	}
	if snapshot != "" {
		if err := res.Save(snapshot); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "decomposed and saved snapshot to %s\n", snapshot)
	}
	return res, nil
}

func argUint(i int) (uint64, error) {
	if flag.NArg() <= i {
		return 0, fmt.Errorf("missing argument")
	}
	return strconv.ParseUint(flag.Arg(i), 10, 32)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kcorequery: %v\n", err)
	os.Exit(1)
}
