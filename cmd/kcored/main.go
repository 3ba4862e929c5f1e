// Command kcored serves core-decomposition queries over HTTP while edge
// updates stream in. It is a thin wiring layer: graphs are opened into
// an engine.Registry (one epoch-snapshot serving engine per graph, see
// internal/engine and internal/serve) and requests are routed by
// internal/httpapi. Queries never block on updates; updates are
// coalesced into batches maintained incrementally with SemiInsert*/
// SemiDelete*; a k-core listing is one early-exit scan of the epoch's
// snapshot.
//
// Usage:
//
//	kcored -graph /data/twitter -addr :8080 [-cache-blocks 1024] [-load social=/data/social ...]
//	kcored -follow http://leader:7171 -addr :7272
//
// The -graph flag names the default graph (served both at /g/default/...
// and at the pre-registry single-graph routes); each -load name=path
// flag opens an additional graph, and more can be added or dropped at
// runtime through the /graphs admin endpoints. See internal/httpapi for
// the full route list.
//
// -data-dir turns on durability: every graph gets a write-ahead log and
// checkpoints under <dir>/<name>/ (sync policy from -fsync, periodic
// checkpoints from -checkpoint-every), SIGINT/SIGTERM shut down
// gracefully (drain HTTP, final sync + checkpoint per graph), and a
// restart with the same -data-dir recovers every graph from its latest
// checkpoint + WAL tail before -graph/-load open anything anew (a
// recovered name wins over its flag — unless the base's header is not
// the one the graph was created from, in which case the recovered graph
// is dropped and the base is re-decomposed).
//
// -follow turns the process into a read replica: instead of opening
// graphs it bootstraps from the leader's checkpoint download
// (GET /g/default/checkpoint), tails the leader's change stream
// (GET /g/default/changes), and serves the same read routes with
// epoch-consistent bounded-stale data (internal/replica). Local writes
// are refused with 409. -follow composes with -data-dir (the follower's
// checkpoint working directory) and with -cache-blocks (the frames its
// downloaded tables are read through), but not with -graph/-load.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/httpapi"
	"kcore/internal/replica"
	"kcore/internal/serve"
	"kcore/internal/wal"
)

// DefaultGraph is the registry name of the graph from -graph, the one
// the single-graph routes alias to.
const DefaultGraph = "default"

func main() {
	var (
		graphBase = flag.String("graph", "", "default graph path prefix (required)")
		addr      = flag.String("addr", "127.0.0.1:7171", "listen address (port 0 picks a free port)")
		batch     = flag.Int("batch", 256, "max updates coalesced into one batch")
		flush     = flag.Duration("flush", 2*time.Millisecond, "max delay before pending updates are applied")
		queueCap  = flag.Int("queue", 4096, "ingest queue capacity (enqueue blocks when full)")
		blockSize = flag.Int("block", 4096, "I/O accounting block size B")
		backend   = flag.String("backend", "", "alias for -cache-blocks, kept for old command lines: mem is the default frames (any -cache-blocks ignored), disk is -cache-blocks frames (1024 when unset)")
		cacheBlks = flag.Int("cache-blocks", 0, "frames of the block cache every opened graph's tables are read through, in blocks of -block bytes (0 picks the default, 64): resident adjacency is capped at cache-blocks*block bytes however large the graph, next to the core arrays, the node index and the update buffer. Every block a frame loads is checked against a checksum the graph's header vouches for, read from the checksum sidecar the graph was built with, or recorded by one pass over the tables at open when it has none")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving mux (see `make profile`); leave off in production. Without it no heap profile is sampled")
		dataDir   = flag.String("data-dir", "", "durability directory: every graph gets a write-ahead log and checkpoints under <dir>/<name>/, and a restart with the same -data-dir recovers all graphs (checkpoint + WAL replay) before opening any -graph/-load path anew. It adds no resident copy of the adjacency: a checkpoint streams the graph's own files (checkpoint_block_reads in /stats). Without it a full update buffer is folded back into the tables at the graph's path, on the writer; with it, the graph serves its own tables under the data dir (a copy of the base at first open) and folds back by adopting the checkpoint the full buffer triggers, written off the writer")
		fsyncPol  = flag.String("fsync", "interval", "WAL sync policy with -data-dir: always (fsync every batch), interval (background fsync; a crash may lose the last unsynced batches), never (fsync only at checkpoints/shutdown)")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval with -data-dir (0 disables periodic checkpoints; one is still taken at startup, on clean shutdown and when the update buffer fills)")
		follow    = flag.String("follow", "", "leader base URL (http://host:port): run as a read replica of the leader's default graph instead of opening any graph locally; -cache-blocks sizes the cache its downloaded tables are read through, -data-dir is where they are kept; incompatible with -graph/-load")
	)
	extra := make(map[string]string)
	flag.Func("load", "additional graph as name=path (repeatable)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", s)
		}
		if _, dup := extra[name]; dup {
			return fmt.Errorf("graph %q loaded twice", name)
		}
		extra[name] = path
		return nil
	})
	flag.Parse()
	if !*pprofOn {
		// Nobody can read a heap profile without -pprof, so keep none:
		// the sampler's bucket table is resident for the process's life.
		runtime.MemProfileRate = 0
	}
	if *follow != "" && (*graphBase != "" || len(extra) > 0) {
		fmt.Fprintln(os.Stderr, "kcored: -follow replicates the leader's graph; drop -graph/-load")
		os.Exit(2)
	}
	if *follow == "" && *graphBase == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "kcored: -graph is required (or -data-dir with recoverable graphs, or -follow)")
		os.Exit(2)
	}

	opts := engine.Options{
		Serve: serve.Options{
			MaxBatch:      *batch,
			FlushInterval: *flush,
			QueueCapacity: *queueCap,
		},
		Open: kcore.OpenOptions{BlockSize: *blockSize},
	}
	if *dataDir != "" && *follow == "" {
		// A follower keeps no WAL of its own: -data-dir only names its
		// checkpoint working directory below.
		policy, err := wal.ParseSyncPolicy(*fsyncPol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcored: -fsync: %v\n", err)
			os.Exit(2)
		}
		opts.Durability = &engine.DurabilityOptions{
			Dir:             *dataDir,
			Policy:          policy,
			CheckpointEvery: *ckptEvery,
		}
	}
	reg := engine.NewRegistry(&opts)
	defer reg.Close()

	recovered := make(map[string]engine.GraphRecovery)
	if opts.Durability != nil {
		rep, err := reg.Recover()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kcored: %s\n", rep.Summary())
		for _, g := range rep.Graphs {
			if g.Err != nil {
				fmt.Fprintf(os.Stderr, "kcored: graph %q unrecoverable: %v\n", g.Name, g.Err)
				continue
			}
			recovered[g.Name] = g
			if g.Degraded {
				fmt.Printf("kcored: graph %q recovered DEGRADED (read-only): %s\n", g.Name, g.Reason)
			}
		}
	}

	// open decomposes a base path under name unless recovery already
	// brought that name up from the same base: tables whose header
	// (counts, sizes, checksums) is the one the name was created from.
	// Other tables mean the operator replaced the base: the recovered
	// graph (and its durable dir) is dropped and the base re-decomposed.
	// A base that cannot be read, or a data dir that recorded no base,
	// keeps the recovered graph. A name whose durable state exists but
	// failed to recover is never opened over: the registry refuses it
	// (engine.ErrUnrecovered, naming the directory).
	open := func(name, path string) {
		if _, ok := recovered[name]; ok {
			if !reg.BaseChanged(name, path) {
				fmt.Printf("kcored: graph %q already recovered from %s, skipping base %s\n", name, *dataDir, path)
				return
			}
			fmt.Printf("kcored: graph %q base %s is not the graph it was created from, re-decomposing\n", name, path)
			if err := reg.Drop(name); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("kcored: decomposing %s (graph %q)\n", path, name)
		if _, err := reg.OpenBackend(name, path, engine.BackendConfig{
			Backend:     *backend,
			CacheBlocks: *cacheBlks,
		}); err != nil {
			fatal(err)
		}
	}
	if *graphBase != "" {
		open(DefaultGraph, *graphBase)
	}
	for name, path := range extra {
		open(name, path)
	}

	if *follow != "" {
		fmt.Printf("kcored: following %s (graph %q)\n", *follow, DefaultGraph)
		oo, err := engine.BackendConfig{Backend: *backend, CacheBlocks: *cacheBlks}.OpenOptions(opts.Open)
		if err != nil {
			fatal(err)
		}
		f, err := replica.New(replica.Options{
			Leader: *follow,
			Graph:  DefaultGraph,
			Dir:    *dataDir,
			Serve:  opts.Serve,
			Open:   oo,
		})
		if err != nil {
			fatal(err)
		}
		// The registry takes ownership: its deferred Close stops the
		// follower's stream loop and removes the bootstrap dir.
		if err := reg.Register(DefaultGraph, f); err != nil {
			f.Close() //nolint:errcheck // register error wins
			fatal(err)
		}
	}
	eng, ok := reg.Get(DefaultGraph)
	if !ok {
		fatal(fmt.Errorf("no default graph: pass -graph, or a -data-dir containing a recovered %q graph", DefaultGraph))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var handler http.Handler = httpapi.New(reg, DefaultGraph)
	if *pprofOn {
		// Opt-in profiling: mount the pprof handlers next to the API so
		// the publish path (and anything else) can be profiled in place
		// with `go tool pprof http://addr/debug/pprof/profile`.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("kcored: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Handler: handler}
	// The handler goes in before the banner: the banner tells a harness
	// (or an init system) that the process may be signalled, and from the
	// first request on there is acked state that only the graceful path
	// below checkpoints. A signal that lands before Notify would kill the
	// process by default action, with no drain and no final checkpoint.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// The resolved address is printed (and flushed) before serving so
	// harnesses using port 0 can discover the endpoint.
	fmt.Printf("kcored: listening on http://%s (%d graphs, kmax %d, epoch %d)\n",
		ln.Addr(), len(reg.Names()), eng.Snapshot().Kmax, eng.Snapshot().Seq)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sigc:
		fmt.Printf("kcored: %v, shutting down\n", s)
		// Drain in-flight requests (a /update?wait=1 caller should get
		// its response) before the deferred registry teardown closes
		// every engine and graph.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		if opts.Durability != nil {
			fmt.Println("kcored: syncing and checkpointing graphs")
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kcored: %v\n", err)
	os.Exit(1)
}
