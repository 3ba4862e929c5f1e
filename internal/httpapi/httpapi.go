// Package httpapi is the HTTP/JSON layer of the serving stack. It turns
// an engine.Registry into an http.Handler, keeping all request parsing,
// routing and encoding out of both the engines and cmd/kcored (which
// shrinks to flag parsing + wiring).
//
// Routes:
//
//	GET    /healthz                     liveness + per-graph epochs
//	GET    /graphs                      list registered graphs
//	POST   /graphs                      open a graph: {"name":..,"path":..,"cache_blocks":N}
//	DELETE /graphs/{name}               drain and drop a graph
//	GET    /g/{name}/core?v=7           core number of node 7
//	GET    /g/{name}/kcore?k=3&limit=9  k-core members, deepest first
//	GET    /g/{name}/degeneracy         kmax and k-core size profile
//	GET    /g/{name}/stats              serving + I/O counters
//	POST   /g/{name}/update[?wait=1]    {"updates":[{"op":"insert","u":1,"v":2},..]}
//	POST   /g/{name}/checkpoint         force a durability checkpoint (data-dir mode only)
//	GET    /g/{name}/changes?from=L     replication change stream: the WAL's CRC-framed batch
//	                                    records with LSN > L plus idle heartbeats (data-dir mode only)
//	GET    /g/{name}/checkpoint         download the newest committed checkpoint as a tar
//
// Every graph read response carries an X-Kcore-Epoch header with the
// epoch it was served from, so replicas behind a load balancer can be
// compared for staleness. Writes to graphs that cannot accept them —
// replication followers and graphs recovered degraded — answer 409
// with {"error": ..., "read_only": true}. A POST /update or POST /graphs
// body past maxBodyBytes (4 MiB) answers 413.
//
// The single-graph routes from before the registry existed (/core,
// /kcore, /degeneracy, /stats, /update) are kept as aliases for a
// designated default graph: same paths, parameters, status codes and
// response shapes. One deliberate behaviour change: /kcore lists nodes
// core-descending, ids ascending within one core number
// (CoreSnapshot.KCoreTop) instead of id-ascending, so a limit keeps the
// most deeply embedded members — the same ones on every server at that
// epoch, whatever each was queried before.
package httpapi

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kcore/internal/engine"
	"kcore/internal/serve"
	"kcore/internal/wal"
)

// Server routes requests to engines resolved by graph name through a
// Registry. Build one with New.
type Server struct {
	reg *engine.Registry
	def string // graph name the legacy single-graph routes resolve to
	mux *http.ServeMux
}

// New builds the API handler over reg. defaultGraph names the graph the
// legacy single-graph routes serve; it does not need to exist yet (the
// aliases 404 until it is registered).
func New(reg *engine.Registry, defaultGraph string) *Server {
	s := &Server{reg: reg, def: defaultGraph, mux: http.NewServeMux()}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /graphs", s.handleCreateGraph)
	s.mux.HandleFunc("DELETE /graphs/{name}", s.handleDropGraph)

	// Per-graph routes and their single-graph aliases share handlers:
	// the alias path simply resolves to the default graph's engine.
	s.mux.HandleFunc("GET /g/{name}/core", s.graph(handleCore))
	s.mux.HandleFunc("GET /g/{name}/kcore", s.graph(handleKCore))
	s.mux.HandleFunc("GET /g/{name}/degeneracy", s.graph(handleDegeneracy))
	s.mux.HandleFunc("GET /g/{name}/stats", s.graph(handleStats))
	s.mux.HandleFunc("POST /g/{name}/update", s.graph(handleUpdate))
	s.mux.HandleFunc("POST /g/{name}/checkpoint", s.graph(handleCheckpoint))
	s.mux.HandleFunc("GET /g/{name}/changes", s.graph(handleChanges))
	s.mux.HandleFunc("GET /g/{name}/checkpoint", s.graph(handleCheckpointFetch))
	s.mux.HandleFunc("GET /core", s.graph(handleCore))
	s.mux.HandleFunc("GET /kcore", s.graph(handleKCore))
	s.mux.HandleFunc("GET /degeneracy", s.graph(handleDegeneracy))
	s.mux.HandleFunc("GET /stats", s.graph(handleStats))
	s.mux.HandleFunc("POST /update", s.graph(handleUpdate))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// graph adapts a per-engine handler to the mux: it resolves the {name}
// path value (empty on the legacy alias routes, which map to the
// default graph) and answers 404 for unknown names.
func (s *Server) graph(h func(eng engine.Engine, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if name == "" {
			name = s.def
		}
		eng, ok := s.reg.Get(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown graph %q", name)
			return
		}
		h(eng, w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds the JSON body of POST /update and POST /graphs.
// The decoder holds what it has read, and an update body is decoded
// whole before anything is enqueued, so without a bound one request can
// take any amount of server memory. 4 MiB is about 130k updates at
// ~32 bytes each, far more than one flush coalesces.
const maxBodyBytes = 4 << 20

// bodyDecoder returns a JSON decoder over the request's body that reads
// at most maxBodyBytes of it.
func bodyDecoder(w http.ResponseWriter, r *http.Request) *json.Decoder {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// badBody answers a request whose body did not decode: 413 when it ran
// past maxBodyBytes, 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, "bad body: %v", err)
}

// setEpochHeader tags a graph response with the epoch it was served
// from; replicas behind a load balancer surface their staleness this way.
func setEpochHeader(w http.ResponseWriter, seq uint64) {
	w.Header().Set("X-Kcore-Epoch", strconv.FormatUint(seq, 10))
}

// refuseWrite maps write-path errors on graphs that cannot accept
// writes — replication followers (engine.ErrReadOnly) and graphs
// recovered degraded (engine.ErrDegraded) — to one consistent 409 with
// a machine-readable body. It reports whether it handled the error.
func refuseWrite(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, engine.ErrReadOnly) && !errors.Is(err, engine.ErrDegraded) {
		return false
	}
	writeJSON(w, http.StatusConflict, map[string]any{
		"error":     err.Error(),
		"read_only": true,
	})
	return true
}

// uintParam parses a required uint32 query parameter.
func uintParam(r *http.Request, name string) (uint32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	x, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: not a uint32", name, raw)
	}
	return uint32(x), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness probes poll this: stick to atomic epoch loads, no
	// counter snapshots (reg.List() would build one per graph).
	epochs := make(map[string]uint64)
	for _, name := range s.reg.Names() {
		if eng, ok := s.reg.Get(name); ok {
			epochs[name] = eng.Snapshot().Seq
		}
	}
	resp := map[string]any{"status": "ok", "graphs": epochs}
	// Pre-registry shape: surface the default graph's epoch when present.
	if seq, ok := epochs[s.def]; ok {
		resp["epoch"] = seq
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(infos),
		"default": s.def,
		"graphs":  infos,
	})
}

// createGraphRequest is the body of POST /graphs. CacheBlocks is the
// frame count of the block cache the graph's tables are read through (0:
// the default, 64); Backend is its alias, as engine.BackendConfig reads
// it.
type createGraphRequest struct {
	Name        string `json:"name"`
	Path        string `json:"path"`
	Backend     string `json:"backend,omitempty"`
	CacheBlocks int    `json:"cache_blocks,omitempty"`
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var req createGraphRequest
	// Unknown fields are refused, not dropped: a request that names an
	// option this server does not have must not look like it was honoured.
	dec := bodyDecoder(w, r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if req.Name == "" || req.Path == "" {
		httpError(w, http.StatusBadRequest, "name and path are required")
		return
	}
	switch req.Backend {
	case "", engine.BackendMem, engine.BackendDisk:
	default:
		httpError(w, http.StatusBadRequest, "unknown backend %q (want %s or %s)",
			req.Backend, engine.BackendMem, engine.BackendDisk)
		return
	}
	if req.CacheBlocks < 0 {
		httpError(w, http.StatusBadRequest, "cache_blocks must be >= 0, got %d", req.CacheBlocks)
		return
	}
	eng, err := s.reg.OpenBackend(req.Name, req.Path, engine.BackendConfig{
		Backend:     req.Backend,
		CacheBlocks: req.CacheBlocks,
	})
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrExists), errors.Is(err, engine.ErrUnrecovered):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, engine.ErrBadName):
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	default:
		// Open/decompose failures (missing files, bad format, ...).
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	snap := eng.Snapshot()
	resp := map[string]any{
		"name":  req.Name,
		"nodes": snap.NumNodes(),
		"edges": snap.NumEdges,
		"kmax":  snap.Kmax,
		"epoch": snap.Seq,
	}
	if b := eng.Report().Backend; b != "" {
		resp["backend"] = b
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleDropGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Drop(name); err != nil {
		if errors.Is(err, engine.ErrNotFound) {
			httpError(w, http.StatusNotFound, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

func handleCore(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	v, err := uintParam(r, "v")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := eng.Snapshot()
	setEpochHeader(w, snap.Seq)
	c, err := snap.CoreOf(v)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": v, "core": c, "epoch": snap.Seq})
}

func handleKCore(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	k, err := uintParam(r, "k")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil || limit < 0 {
			httpError(w, http.StatusBadRequest, "bad limit=%q", raw)
			return
		}
	}
	snap := eng.Snapshot()
	setEpochHeader(w, snap.Seq)
	// The count comes from the epoch's histogram; the scan for the
	// members stops once limit of them are placed.
	nodes, count := snap.KCoreTop(k, limit)
	if nodes == nil {
		nodes = []uint32{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"k": k, "count": count, "nodes": nodes, "epoch": snap.Seq,
	})
}

func handleDegeneracy(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	snap := eng.Snapshot()
	setEpochHeader(w, snap.Seq)
	writeJSON(w, http.StatusOK, map[string]any{
		"degeneracy": snap.Kmax,
		"nodes":      snap.NumNodes(),
		"edges":      snap.NumEdges,
		"core_sizes": snap.Sizes(), // O(Kmax): the snapshot keeps its histogram
		"epoch":      snap.Seq,
	})
}

func handleStats(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	snap, rep := eng.Snapshot(), eng.Report()
	setEpochHeader(w, snap.Seq)
	resp := map[string]any{
		"serve":   rep.Serve,
		"epoch":   snap.Seq,
		"applied": snap.Applied,
		"nodes":   snap.NumNodes(),
		"edges":   snap.NumEdges,
	}
	// The backend label says how the graph was opened (its frames, or a
	// follower); the io block only appears once the graph has actually
	// measured block I/O — an all-zero block would read as "measured:
	// zero", which is not what happened before anything was read.
	if rep.Backend != "" {
		resp["backend"] = rep.Backend
	}
	if io := rep.IO; io.Total() != 0 || io.ReadBytes != 0 || io.WriteBytes != 0 {
		resp["io"] = io
	}
	// Every graph exposes its cache/overlay/merge economy.
	if rep.Disk != nil {
		resp["disk"] = rep.Disk
	}
	// Durable graphs expose WAL/checkpoint/recovery counters and the
	// degraded read-only flag.
	if rep.Durability != nil {
		resp["durability"] = rep.Durability
		resp["degraded"] = rep.Durability.Degraded
	}
	// Replication followers expose their apply cursor, the highest
	// leader LSN observed, and stream health.
	if rep.Replica != nil {
		resp["replica"] = rep.Replica
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint forces a checkpoint of a durable graph; 400 for
// graphs opened without a data dir, 503 when the graph is degraded or
// the checkpoint fails.
func handleCheckpoint(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	cp, ok := eng.(engine.Checkpointer)
	if !ok {
		httpError(w, http.StatusBadRequest, "graph is not durable: no checkpoint to take")
		return
	}
	if err := cp.Checkpoint(); err != nil {
		if refuseWrite(w, err) {
			return
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpointed": true,
		"durability":   eng.Report().Durability,
		"epoch":        eng.Snapshot().Seq,
	})
}

// changesHeartbeat is how long an idle change stream waits before
// emitting a heartbeat frame. It doubles as the handler's liveness
// bound: a stream whose client vanished is discovered by the failed
// heartbeat write within one interval.
const changesHeartbeat = 500 * time.Millisecond

// changesBatchMax caps the records read from the log per write, so a
// follower resuming far behind streams in bounded chunks instead of one
// giant buffer.
const changesBatchMax = 256

// handleChanges streams the graph's write-ahead log as CRC-framed records
// (the log's own frame format) with LSN > from, then idles emitting
// heartbeats until the next append lands, and ends when the log closes.
// A cursor older than log retention answers 410 Gone with the oldest
// servable cursor — the follower's signal to bootstrap from a checkpoint
// instead; a degraded graph, which is no stream source, answers 503.
func handleChanges(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	cs, ok := eng.(engine.ChangeStreamer)
	if !ok {
		httpError(w, http.StatusBadRequest, "graph has no change stream (opened without a data dir)")
		return
	}
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		var err error
		if from, err = strconv.ParseUint(raw, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad from=%q: not a uint64", raw)
			return
		}
	}
	// Open the cursor before committing to a streaming response: a trimmed
	// cursor must surface as a real 410 status, which is impossible once
	// the header is out.
	tail, err := cs.Changes(from)
	var trimmed *wal.TrimmedError
	switch {
	case errors.As(err, &trimmed):
		writeJSON(w, http.StatusGone, map[string]any{"error": err.Error(), "oldest_lsn": trimmed.Oldest})
		return
	case err != nil:
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Kcore-LSN", strconv.FormatUint(cs.CurrentLSN(), 10))
	setEpochHeader(w, eng.Snapshot().Seq)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	heartbeat := time.NewTimer(changesHeartbeat)
	defer heartbeat.Stop()
	var buf []byte
	for {
		recs, wait, err := tail.Next(changesBatchMax)
		if err != nil {
			// The log closed, or retention overtook a stalled client: close
			// the connection; a reconnect gets the 410.
			return
		}
		buf = buf[:0]
		for _, rec := range recs {
			buf = wal.AppendRecord(buf, rec.LSN, rec.Deletes, rec.Inserts)
		}
		if len(recs) == 0 {
			heartbeat.Reset(changesHeartbeat)
			select {
			case <-r.Context().Done():
				return
			case <-wait:
				continue
			case <-heartbeat.C:
				buf = wal.AppendHeartbeat(buf, cs.CurrentLSN())
			}
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		rc.Flush() //nolint:errcheck // a failed write already says the client is gone
	}
}

// handleCheckpointFetch serves the newest committed checkpoint as a tar
// archive, for follower bootstrap. The files are pinned open for the
// whole download, so concurrent checkpoint retention cannot tear it.
func handleCheckpointFetch(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	cs, ok := eng.(engine.ChangeStreamer)
	if !ok {
		httpError(w, http.StatusBadRequest, "graph is not durable: no checkpoint to download")
		return
	}
	h, err := cs.OpenCheckpoint()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer h.Close() //nolint:errcheck // read-only handles
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("X-Kcore-Ckpt-LSN", strconv.FormatUint(h.Manifest.LSN, 10))
	w.Header().Set("X-Kcore-Ckpt-Seq", strconv.FormatUint(h.Manifest.Seq, 10))
	w.WriteHeader(http.StatusOK)
	tw := tar.NewWriter(w)
	for _, f := range h.Files {
		hdr := &tar.Header{Name: f.Name, Mode: 0o644, Size: f.Size}
		if err := tw.WriteHeader(hdr); err != nil {
			return
		}
		if _, err := io.Copy(tw, f.Reader()); err != nil {
			return
		}
	}
	tw.Close() //nolint:errcheck // client gone; nothing to do
}

// updateRequest is the body of POST /update.
type updateRequest struct {
	Updates []updateJSON `json:"updates"`
}

type updateJSON struct {
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

func handleUpdate(eng engine.Engine, w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := bodyDecoder(w, r).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, "no updates")
		return
	}
	ups := make([]serve.Update, len(req.Updates))
	for i, u := range req.Updates {
		switch u.Op {
		case "insert":
			ups[i] = serve.Update{Op: serve.OpInsert, U: u.U, V: u.V}
		case "delete":
			ups[i] = serve.Update{Op: serve.OpDelete, U: u.U, V: u.V}
		default:
			httpError(w, http.StatusBadRequest, "bad op %q (want insert or delete)", u.Op)
			return
		}
	}
	wait := r.URL.Query().Get("wait") != ""
	var err error
	if wait {
		err = eng.Apply(ups...)
	} else {
		err = eng.Enqueue(ups...)
	}
	if err != nil {
		if refuseWrite(w, err) {
			return
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	status := http.StatusAccepted
	if wait {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{
		"enqueued": len(ups),
		"waited":   wait,
		"epoch":    eng.Snapshot().Seq,
	})
}
