// Package service is the long-running serving layer over the whole stack.
//
// Its core is one query path. /v1/sssp, /v1/path and /v1/apsp each decode
// a request and project a response; everything between goes through
// serveQuery: resolve the graph (inline, generator spec, or a registered
// handle; a generator spec seen before resolves through the spec index
// without being built), range-check the named nodes, key the request, and
// serve it from a content-addressed result cache in front of a bounded
// worker pool. A miss is answered per source, the way the paper builds
// APSP from independent SSSP instances. On a registered graph, each source
// comes from a row already traced at this revision, from affected-region
// repair of a stale trace, or from the engine (runEngine). Answers are
// recorded back into the registry so the next PATCH can classify them. The
// determinism the bench harness guarantees is what makes this sound: a
// query result is a pure function of (canonical graph, options), so cached
// bytes are indistinguishable from recomputation.
//
// Around that path the package registers and patches dynamic graphs and
// reports its own state (/v1/stats, /metrics, the trace flight recorder).
// Scenario sweeps and their envelope-ratio history are not served here:
// cmd/dsssp-bench produces the reports and cmd/dsssp-diff gates and
// chains them offline.
package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"dsssp"
	"dsssp/internal/core"
	"dsssp/internal/graph"
	"dsssp/internal/incr"
	"dsssp/internal/obs"
	"dsssp/internal/obs/trace"
	"dsssp/internal/simnet"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// HistoryDir is ignored.
	//
	// Deprecated: the daemon no longer runs sweeps or keeps a bench
	// history; dsssp-bench writes reports and dsssp-diff compares them.
	// The field is kept only so existing callers still compile.
	HistoryDir string
	// CacheBytes is the result cache's byte budget (default 64 MiB; <= 0
	// after defaulting disables storage but keeps request deduplication).
	CacheBytes int64
	// GraphBytes is the dynamic-graph registry's byte budget: registered
	// graphs plus their per-source result traces, evicted whole-graph LRU
	// (default 256 MiB).
	GraphBytes int64
	// RegistryDir, when set, persists registered graphs (and their traces)
	// to disk on register/PATCH and reloads them on startup, so a redeploy
	// doesn't forget every registered graph. Empty disables persistence.
	RegistryDir string
	// RepairMaxAffected is the affected-region repair cutoff as a fraction
	// of n: a dirty source is repaired from its stale trace only while the
	// affected region stays within the fraction; past it the repair
	// abandons ship and the source recomputes from scratch (which also
	// re-mints a cacheable canonical body). 0 defaults to 0.5; negative
	// disables repair entirely.
	RepairMaxAffected float64
	// Workers bounds concurrently executing queries (default NumCPU).
	Workers int
	// MaxIntraWorkers caps a query's requested intra-round simulation
	// workers (QueryOptions.Workers); requests above the cap are clamped,
	// not rejected — the knob cannot change result bytes, only wall time.
	// Default NumCPU; set 1 to force sequential simulation. Note the cap
	// composes with Workers: a saturated query pool times per-query intra
	// workers can oversubscribe the machine, so busy deployments should
	// keep one of the two at 1.
	MaxIntraWorkers int
	// Rev is the build's git revision, reported by /v1/stats (default
	// "unknown").
	Rev string
	// MaxN caps requested graph sizes (default 4096).
	MaxN int
	// MaxEdges caps inline edge lists (default 1<<20).
	MaxEdges int
	// MaxBodyBytes caps request bodies (default 16 MiB).
	MaxBodyBytes int64
	// Logger receives one structured completion line per request plus
	// slow-query and lifecycle events (default: discard — the daemon
	// passes a real handler; tests stay quiet).
	Logger *slog.Logger
	// SlowQueryThreshold marks requests slower than this as slow queries
	// (logged at Warn, counted in dsssp_slow_queries_total; default 1s).
	// Traces at least this slow also land in the flight recorder's
	// retained ring.
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the fraction of requests that record a span tree
	// into the flight recorder (0 defaults to 1.0 — record everything;
	// negative disables recording, leaving only trace-ID correlation).
	// Unsampled requests pay no tracing allocations.
	TraceSampleRate float64
	// TraceRecent is the flight recorder's recent-trace ring capacity
	// (default 256).
	TraceRecent int
	// TraceRetained is the flight recorder's slow/error retention ring
	// capacity (default 64).
	TraceRetained int

	// now is the test hook for timestamps (default time.Now).
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.GraphBytes == 0 {
		c.GraphBytes = 256 << 20
	}
	if c.RepairMaxAffected == 0 {
		c.RepairMaxAffected = 0.5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxIntraWorkers <= 0 {
		c.MaxIntraWorkers = runtime.NumCPU()
	}
	if c.Rev == "" {
		c.Rev = "unknown"
	}
	if c.MaxN <= 0 {
		c.MaxN = 4096
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = time.Second
	}
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the dsssp serving layer; construct with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg      Config
	cache    *Cache
	specs    *Cache // the spec index (see resolveGenerator)
	registry *GraphRegistry
	querySem chan struct{}
	mux      *http.ServeMux
	metrics  *serverMetrics
	tracer   *trace.Tracer
	logger   *slog.Logger
	started  time.Time
}

// New builds a Server without binding a port.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	cache := NewCache(cfg.CacheBytes)
	registry := NewGraphRegistry(cfg.GraphBytes, cache, cfg.now)
	if cfg.RegistryDir != "" {
		restored, err := registry.EnablePersistence(cfg.RegistryDir)
		if err != nil {
			return nil, fmt.Errorf("registry persistence: %w", err)
		}
		cfg.Logger.Info("registry persistence enabled",
			"dir", cfg.RegistryDir, "graphs_restored", restored)
	}
	metrics := newServerMetrics(&cfg, cache, registry)
	registry.bindMetrics(metrics)
	tracer := trace.New(trace.Config{
		SampleRate:    cfg.TraceSampleRate,
		Recent:        cfg.TraceRecent,
		Retained:      cfg.TraceRetained,
		SlowThreshold: cfg.SlowQueryThreshold,
	})
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		specs:    NewCache(specIndexBytes),
		registry: registry,
		querySem: make(chan struct{}, cfg.Workers),
		mux:      http.NewServeMux(),
		metrics:  metrics,
		tracer:   tracer,
		logger:   cfg.Logger,
		started:  cfg.now(),
	}
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("POST /v1/sssp", s.handleSSSP)
	s.mux.HandleFunc("POST /v1/path", s.handlePath)
	s.mux.HandleFunc("POST /v1/apsp", s.handleAPSP)
	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphRegister)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphGet)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleGraphDelete)
	s.mux.HandleFunc("PATCH /v1/graphs/{id}/edges", s.handleGraphPatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler, wrapped in the instrumentation
// middleware: request-ID assignment, per-endpoint metrics, one structured
// completion log line per request, and panic recovery (a handler panic
// becomes a 500 JSON error, never a dead connection and never a dead
// server).
func (s *Server) Handler() http.Handler {
	return s.instrument(s.mux)
}

// Metrics exposes the telemetry registry (the daemon mounts it on the
// debug listener too; tests scrape it directly).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Tracer exposes the request tracer (the benchmark client and tests reach
// the flight recorder through it).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Close flushes the registry to its persistence directory (traces
// accumulated by queries since the last register/PATCH spill included).
// Call after the HTTP listener has drained (http.Server.Shutdown) so
// in-flight requests see consistent state.
func (s *Server) Close() {
	if err := s.registry.Flush(); err != nil {
		s.logger.Error("registry flush failed", "err", err)
	}
}

func (s *Server) now() time.Time { return s.cfg.now() }

// --- query endpoints ---

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	var req SSSPRequest
	if !s.decode(w, r, &req) {
		return
	}
	// ?trace=1 and options.record_phases both attach the per-phase
	// breakdown; folding trace into the options before the key is computed
	// keeps traced and untraced responses as distinct cache entries.
	req.Options.RecordPhases = req.Options.RecordPhases || wantTrace(r)
	src := graph.NodeID(req.Source)
	s.serveQuery(w, r, "sssp", req.Graph, req.Options, fmt.Sprintf("src=%d", req.Source),
		func(q *query, sp *trace.Span) ([]byte, bool, error) {
			a, err := s.answerSource(w, sp, q, src, false)
			if err != nil {
				return nil, false, err
			}
			resp := SSSPResponse{
				N: q.g.N(), M: q.g.M(),
				Dist:           a.Dist,
				Unreachable:    countUnreachable(a.Dist),
				SubproblemsMax: a.SubproblemsMax,
				Metrics:        metricsJSON(a.Metrics),
				Incr:           a.incr,
			}
			if q.phases {
				resp.Phases = a.phases
			}
			b, err := json.Marshal(resp)
			return b, a.incr == nil, err
		}, req.Source)
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if !s.decode(w, r, &req) {
		return
	}
	// A path response carries no phases, so ?trace=1 is not folded into
	// its options (an explicit options.record_phases still keys the entry
	// and rules out repair).
	src, dst := graph.NodeID(req.Source), graph.NodeID(req.Target)
	s.serveQuery(w, r, "path", req.Graph, req.Options, fmt.Sprintf("src=%d|dst=%d", req.Source, req.Target),
		func(q *query, sp *trace.Span) ([]byte, bool, error) {
			a, err := s.answerSource(w, sp, q, src, true)
			if err != nil {
				return nil, false, err
			}
			resp := PathResponse{Dist: a.Dist[dst], Path: []int64{}, Metrics: metricsJSON(a.Metrics), Incr: a.incr}
			if resp.Dist != graph.Inf {
				// Unreachable targets are an answer (dist = +Inf sentinel,
				// empty path), not an error.
				nodes, err := a.PathTo(dst)
				if err != nil {
					return nil, false, err
				}
				for _, v := range nodes {
					resp.Path = append(resp.Path, int64(v))
				}
			}
			b, err := json.Marshal(resp)
			return b, a.incr == nil, err
		}, req.Source, req.Target)
}

func (s *Server) handleAPSP(w http.ResponseWriter, r *http.Request) {
	var req APSPRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.Options.RecordPhases = req.Options.RecordPhases || wantTrace(r)
	s.serveQuery(w, r, "apsp", req.Graph, req.Options, fmt.Sprintf("seed=%d", req.Seed),
		func(q *query, sp *trace.Span) ([]byte, bool, error) {
			return s.answerAPSP(w, sp, q, req.Seed)
		})
}

// wantTrace reports whether the query string asks for the span-level
// trace (?trace=1): the per-phase round/energy/bits breakdown inline in
// the response.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// query is one resolved query request: the graph, its node count and
// digest (the cache key's graph half), the generator that builds the graph
// when a spec-index hit left g nil, the engine options, the registered
// graph's handle ("" for inline and generator specs), the cache key's
// request half, and whether the response carries the per-phase breakdown.
// A registered graph resolves to its immutable head snapshot, so a PATCH
// landing mid-computation cannot change the answer. On a miss, reused and
// recomputed tally how the sources were served (tryRepair counts repairs).
type query struct {
	g       *graph.Graph
	n       int
	digest  [32]byte
	gen     generator
	opts    *dsssp.Options
	graphID string
	parts   string
	phases  bool

	reused, recomputed int
}

// serveQuery is the one query path behind /v1/sssp, /v1/path and
// /v1/apsp: resolve the graph and options, range-check the request's
// source and target (nodes), key it, and serve it through the
// content-addressed cache and the bounded worker pool. Hits skip the pool;
// a miss waits for a worker slot (respecting request cancellation while
// queued) and project builds its body, saying whether those bytes may be
// cached — not when they depend on history, as repaired and
// partially-reused answers do. Identical concurrent misses collapse into
// one computation whose followers are counted and marked as hits.
//
// On a registered graph the reuse counters move last: a hit counts the
// request's one source (all n for apsp, which names no nodes) as reused,
// a miss counts the split its answers tallied.
//
// Tracing: the request gains a cache.lookup span labeled with the outcome
// (hit / shared / miss); only the flight leader opens queue.wait and exec
// spans — a follower's wait shows inside its own cache.lookup — and
// project hangs its repair and engine spans under exec.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kind string, spec GraphSpec, qo QueryOptions,
	detail string, project func(q *query, sp *trace.Span) ([]byte, bool, error), nodes ...int64) {
	q, ok := s.prepare(w, r, spec, qo)
	if !ok {
		return
	}
	for i, id := range nodes {
		if id < 0 || id >= int64(q.n) {
			s.replyError(w, badf("%s %d out of range [0,%d)", [...]string{"source", "target"}[i], id, q.n))
			return
		}
	}
	q.parts = queryKeyParts(kind, qo, detail)
	root := trace.FromContext(r.Context())
	cacheSp := root.StartChild("cache.lookup")
	body, outcome, err := s.cache.getOrCompute(keyFromDigest(q.digest, q.parts), func() ([]byte, bool, error) {
		qsp := root.StartChild("queue.wait")
		s.metrics.queueDepth.Inc()
		queued := time.Now()
		select {
		case s.querySem <- struct{}{}:
			s.metrics.queueDepth.Dec()
			s.metrics.queueWait.Observe(time.Since(queued).Seconds())
			qsp.End()
			s.metrics.poolBusy.Inc()
			defer func() {
				s.metrics.poolBusy.Dec()
				<-s.querySem
			}()
		case <-r.Context().Done():
			s.metrics.queueDepth.Dec()
			qsp.SetError("cancelled while queued")
			qsp.End()
			return nil, false, r.Context().Err()
		}
		// The miss works on its own copy of the query, so that a hit, which
		// never reaches here, does not pay for moving q to the heap. A
		// spec-index hit resolved no graph: build it now.
		mq := q
		execSp := root.StartChild("exec")
		if mq.g == nil {
			g, err := mq.gen.build()
			if err != nil {
				execSp.SetError(err.Error())
				execSp.End()
				return nil, false, err
			}
			mq.g = g
		}
		b, cacheable, err := project(&mq, execSp)
		q.reused, q.recomputed = mq.reused, mq.recomputed
		if err != nil {
			execSp.SetError(err.Error())
		}
		execSp.End()
		return b, cacheable, err
	})
	cacheSp.SetAttr("result", outcome.String())
	cacheSp.End()
	if err != nil {
		s.replyError(w, err)
		return
	}
	hit := outcome != cacheMiss
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Dsssp-Cache", "hit")
	} else {
		w.Header().Set("X-Dsssp-Cache", "miss")
	}
	w.Write(body)
	w.Write([]byte("\n"))
	if q.graphID == "" {
		return
	}
	if hit {
		q.reused = 1
		if len(nodes) == 0 {
			q.reused = q.n
		}
	}
	s.metrics.incrSourcesReused.Add(int64(q.reused))
	s.metrics.incrSourcesRecomputed.Add(int64(q.recomputed))
}

// answer is one source's shortest paths as a miss produced them: the
// distance row and witness tree, plus the engine's metrics and phases
// when computed, or the incr block when repaired.
type answer struct {
	dsssp.TreeResult
	phases []core.PhaseStat
	incr   *QueryIncrJSON
}

// answerSource answers a single-source miss: affected-region repair of
// the source's remembered trace on a registered graph (unless the response
// must carry phases, which only a simulation produces), else the engine —
// SSSPTree when the projection walks the tree (its extraction round counts
// in the metrics), SSSP otherwise. A repaired body carries the incr block
// and no metrics, so it is not the key's canonical bytes and is not cached.
//
// On a registered graph the answer is recorded: the distance row is what
// the next PATCH classifies the source against, the witness tree what a
// repair restarts from, and a computed answer's key parts are how a PATCH
// re-addresses or invalidates its cache entry.
func (s *Server) answerSource(w http.ResponseWriter, sp *trace.Span, q *query, src graph.NodeID, tree bool) (answer, error) {
	var a answer
	var rr *incr.RepairResult
	if !q.phases {
		rr = s.tryRepair(sp, q, src)
	}
	parts := ""
	if rr != nil {
		w.Header().Set("X-Dsssp-Incr", "repaired")
		a.Dist, a.Parent = rr.Dist, rr.Parent
		a.incr = &QueryIncrJSON{
			Served:           "repaired",
			AffectedVertices: rr.Affected,
			AffectedFraction: float64(rr.Affected) / float64(q.g.N()),
		}
	} else {
		if q.graphID != "" {
			w.Header().Set("X-Dsssp-Incr", "recomputed")
		}
		var err error
		a.phases, err = s.runEngine(sp, q, 1, func() ([]simnet.SpanMetrics, error) {
			if tree {
				tr, err := dsssp.SSSPTree(q.g, src, q.opts)
				if err != nil {
					return nil, err
				}
				a.TreeResult = *tr
			} else {
				res, err := dsssp.SSSP(q.g, src, q.opts)
				if err != nil {
					return nil, err
				}
				a.Result = *res
			}
			return a.Metrics.Spans, nil
		})
		if err != nil {
			return answer{}, err
		}
		parts = q.parts
	}
	if q.graphID != "" {
		if a.Parent == nil {
			a.Parent = graph.WitnessParents(q.g, src, a.Dist)
		}
		s.registry.Record(q.graphID, q.digest, src, a.Dist, a.Parent, parts)
	}
	return a, nil
}

// answerAPSP answers an APSP miss source by source. Per-source SSSP
// instances are independent, so on a registered graph a row traced at
// this revision is reused verbatim and a stale one is repaired, each
// byte-identical to a re-run. The sources still missing run together in
// one APSPFrom call, because the Composition describes exactly those
// instances scheduled side by side; it and the Incr split are all that
// distinguish a partially-reused response from a from-scratch one.
//
// On a registered graph every repaired and recomputed row is recorded with
// its witness tree, so a later PATCH demotes it to a repairable stale
// trace instead of forgetting it. The whole body is recorded and cached
// only for a from-scratch run: a body that reused or repaired rows is
// history-dependent, so it must not become this key's cached bytes.
func (s *Server) answerAPSP(w http.ResponseWriter, sp *trace.Span, q *query, seed int64) ([]byte, bool, error) {
	n := q.g.N()
	resp := APSPResponse{N: n, M: q.g.M(), Dist: make([][]int64, n)}
	var traced map[graph.NodeID][]int64
	if q.graphID != "" {
		traced = s.registry.Rows(q.graphID, q.digest)
	}
	rows := make(map[graph.NodeID]incr.Trace)
	missing := make([]graph.NodeID, 0, n)
	for v := range graph.NodeID(n) {
		if row, ok := traced[v]; ok {
			resp.Dist[v] = row
		} else if rr := s.tryRepair(sp, q, v); rr != nil {
			resp.Dist[v] = rr.Dist
			rows[v] = incr.Trace{Dist: rr.Dist, Parent: rr.Parent}
		} else {
			missing = append(missing, v)
		}
	}
	repaired := len(rows)
	q.reused = n - len(missing) - repaired
	if len(missing) > 0 {
		var res *dsssp.APSPResult
		phases, err := s.runEngine(sp, q, len(missing), func() (spans []simnet.SpanMetrics, err error) {
			if res, err = dsssp.APSPFrom(q.g, missing, q.opts, seed); err != nil {
				return nil, err
			}
			return res.Composition.Spans, nil
		})
		if err != nil {
			return nil, false, err
		}
		for _, src := range missing {
			resp.Dist[src] = res.Dist[src]
		}
		comp := res.Composition
		resp.Composition = CompositionJSON{
			Dilation: comp.Dilation, Congestion: comp.Congestion,
			MakespanAligned: comp.MakespanAligned, MakespanRandom: comp.MakespanRandom,
			MakespanSequential: comp.MakespanSequential, MaxMessageBits: comp.MaxMessageBits,
		}
		if q.phases {
			resp.Phases = phases
		}
	}
	fresh := q.reused == 0 && repaired == 0
	if q.graphID != "" {
		for _, src := range missing {
			rows[src] = incr.Trace{Dist: resp.Dist[src], Parent: graph.WitnessParents(q.g, src, resp.Dist[src])}
		}
		bodyParts := ""
		if fresh {
			bodyParts = q.parts
		}
		s.registry.RecordRows(q.graphID, q.digest, rows, bodyParts)
	}
	if !fresh {
		resp.Incr = &IncrJSON{SourcesReused: q.reused, SourcesRepaired: repaired, SourcesRecomputed: len(missing)}
		if repaired > 0 {
			w.Header().Set("X-Dsssp-Incr", fmt.Sprintf("reused=%d repaired=%d recomputed=%d", q.reused, repaired, len(missing)))
		} else {
			w.Header().Set("X-Dsssp-Incr", fmt.Sprintf("reused=%d recomputed=%d", q.reused, len(missing)))
		}
	}
	b, err := json.Marshal(resp)
	return b, fresh, err
}

// runEngine is the one place a query runs the simulator: run executes
// under an engine span and returns its span ledger, whose phases are
// grafted into the trace, fed to the per-phase histograms, and returned
// for the response. The run's sources count as recomputed.
//
// The graft embeds the ledger as children of the engine span: the
// engine's measured interval is apportioned across the phases by round
// share (the ledger's clock is rounds, not seconds), so the trace's leaf
// intervals line up end to end under their parent and the per-phase
// `rounds` attributes sum exactly to the run's total rounds — the
// conservation law the span ledger guarantees and the /debug/traces
// consumers assert.
func (s *Server) runEngine(sp *trace.Span, q *query, sources int, run func() ([]simnet.SpanMetrics, error)) ([]core.PhaseStat, error) {
	eng := sp.StartChild("engine")
	eng.SetAttr("sources", sources)
	spans, err := run()
	if err != nil {
		eng.SetError(err.Error())
		eng.End()
		return nil, err
	}
	phases := core.PhasesFromSpans(spans)
	if eng != nil {
		total := core.PhaseRounds(phases)
		d := time.Since(eng.StartTime())
		cursor := eng.StartTime()
		for _, ph := range phases {
			var pd time.Duration
			if total > 0 {
				pd = time.Duration(int64(d) * ph.Rounds / total)
			}
			attrs := []trace.Attr{
				trace.Int64("rounds", ph.Rounds),
				trace.Int64("messages", ph.Messages),
				trace.Int64("awake_rounds", ph.AwakeRounds),
			}
			if ph.RoundsByDepth != "" {
				attrs = append(attrs, trace.String("rounds_by_depth", ph.RoundsByDepth))
			}
			eng.Graft("phase:"+ph.Phase, cursor, pd, attrs...)
			cursor = cursor.Add(pd)
		}
		eng.SetAttr("rounds", total)
	}
	eng.End()
	s.metrics.observePhases(phases, sp.TraceIDString())
	q.recomputed += sources
	return phases, nil
}

// tryRepair attempts affected-region repair for one source of a registered
// graph: resolve the remembered trace and its net changes, bound the
// affected region by the configured fraction of n, and run incr.Repair.
// nil means the caller must fall back to the full computation (no usable
// trace, repair disabled, or the region outgrew the cutoff). The caller
// records a repaired trace at the head revision, so the next PATCH
// classifies it and the next query serves it in O(n).
//
// A sampled request gets a repair span under sp, with the four repair
// phases (carve/seed/settle/witness) grafted as children carrying their
// measured wall times, and the affected-region sizes as attributes; the
// same per-phase split feeds dsssp_repair_phase_seconds so repaired
// queries have a breakdown story like computed ones.
func (s *Server) tryRepair(sp *trace.Span, q *query, src graph.NodeID) *incr.RepairResult {
	if q.graphID == "" || s.cfg.RepairMaxAffected < 0 {
		return nil
	}
	tr, changes, ok := s.registry.Repairable(q.graphID, q.digest, src)
	if !ok {
		return nil
	}
	n := q.g.N()
	limit := 0
	if s.cfg.RepairMaxAffected > 0 {
		limit = max(int(s.cfg.RepairMaxAffected*float64(n)), 1)
	}
	rsp := sp.StartChild("repair")
	rsp.SetAttr("source", int64(src))
	rsp.SetAttr("changes", len(changes))
	start := time.Now()
	rr, ok := incr.Repair(q.g, src, tr, changes, limit)
	s.metrics.repairSeconds.Observe(time.Since(start).Seconds())
	if !ok {
		s.metrics.incrRepairFallbacks.Inc()
		rsp.SetAttr("outcome", "fallback")
		rsp.End()
		return nil
	}
	s.metrics.incrSourcesRepaired.Inc()
	s.metrics.repairAffectedFraction.Observe(float64(rr.Affected) / float64(n))
	rsp.SetAttr("outcome", "repaired")
	rsp.SetAttr("affected", rr.Affected)
	rsp.SetAttr("orphaned", rr.Orphaned)
	rsp.SetAttr("affected_fraction", float64(rr.Affected)/float64(n))
	cursor := rsp.StartTime()
	for i, ns := range rr.PhaseNS {
		s.metrics.repairPhaseSeconds.With(incr.RepairPhaseNames[i]).Observe(float64(ns) / 1e9)
		rsp.Graft("repair:"+incr.RepairPhaseNames[i], cursor, time.Duration(ns))
		cursor = cursor.Add(time.Duration(ns))
	}
	rsp.End()
	return rr
}

// prepare resolves the graph (inline, generator, or registered handle)
// and options for a query, replying on error. For registered graphs the
// handle and revision travel in response headers, not the body: cached
// bodies are migrated verbatim across revisions on PATCH, so a body-borne
// revision number would go stale the moment an entry is carried forward.
// A sampled request gets a graph.resolve span recording where the graph
// came from (registry / inline / generator), its size, and whether this
// request built it (built=false on a registered graph or a spec-index hit).
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, spec GraphSpec, qo QueryOptions) (query, bool) {
	sp := trace.FromContext(r.Context()).StartChild("graph.resolve")
	fail := func(err error) (query, bool) {
		sp.SetError(err.Error())
		sp.End()
		s.replyError(w, err)
		return query{}, false
	}
	opts, err := resolveOptions(qo, s.cfg.Workers, s.cfg.MaxIntraWorkers)
	if err != nil {
		return fail(err)
	}
	q := query{opts: opts, phases: qo.RecordPhases}
	switch {
	case spec.ID != "":
		if spec.N != 0 || len(spec.Edges) > 0 || spec.Family != "" || spec.Seed != 0 || spec.Weights != nil {
			return fail(badf("graph.graph_id is mutually exclusive with inline and generator fields"))
		}
		g, digest, rev, err := s.registry.Resolve(spec.ID)
		if err != nil {
			return fail(err)
		}
		w.Header().Set("X-Dsssp-Graph-Id", spec.ID)
		w.Header().Set("X-Dsssp-Graph-Revision", strconv.Itoa(rev))
		sp.SetAttr("source", "registry")
		sp.SetAttr("graph_id", spec.ID)
		sp.SetAttr("revision", rev)
		q.g, q.n, q.digest, q.graphID = g, g.N(), digest, spec.ID
	case spec.Family != "":
		gen, err := parseGenerator(spec, s.cfg.MaxN)
		if err != nil {
			return fail(err)
		}
		q.gen = gen
		if err := s.resolveGenerator(&q); err != nil {
			return fail(err)
		}
		sp.SetAttr("source", "generator")
	default:
		g, err := buildGraph(spec, s.cfg.MaxN, s.cfg.MaxEdges)
		if err != nil {
			return fail(err)
		}
		sp.SetAttr("source", "inline")
		q.g, q.n, q.digest = g, g.N(), canonicalGraphDigest(g)
	}
	if sp != nil { // boxing n allocates once n >= 256, even on a nil span
		sp.SetAttr("n", q.n)
		sp.SetAttr("built", q.g != nil && q.graphID == "")
	}
	sp.End()
	return q, true
}

// specIndexBytes is the spec index's byte budget. An entry is charged about
// 200 bytes (key, digest, node count and the cache's per-entry overhead),
// so 1 MiB remembers about 5k generator specs.
const specIndexBytes = 1 << 20

// resolveGenerator fills in a generator query's digest and node count from
// the spec index, which maps each spec (generator.indexKey) to its graph's
// canonicalGraphDigest and node count. Cache keys are therefore the same
// as if the graph had been built and hashed, but a hit builds nothing: q.g
// stays nil until an answer miss needs it. An index miss builds the graph
// (keeping it in q.g), checks its weight domain, and records it; concurrent
// misses on one spec build once, and a spec outside the domain is never
// recorded. The index stores no graphs.
func (s *Server) resolveGenerator(q *query) error {
	var g *graph.Graph
	entry, _, err := s.specs.getOrCompute(q.gen.indexKey(), func() ([]byte, bool, error) {
		built, err := q.gen.build()
		if err != nil {
			return nil, false, err
		}
		g = built
		d := canonicalGraphDigest(g)
		return binary.LittleEndian.AppendUint64(d[:], uint64(g.N())), true, nil
	})
	if err != nil {
		return err
	}
	q.g = g
	copy(q.digest[:], entry)
	q.n = int(binary.LittleEndian.Uint64(entry[len(q.digest):]))
	return nil
}

// --- dynamic-graph endpoints ---

func (s *Server) handleGraphRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Graph.ID != "" {
		s.replyError(w, badf("graph.graph_id cannot be set when registering a graph"))
		return
	}
	g, err := buildGraph(req.Graph, s.cfg.MaxN, s.cfg.MaxEdges)
	if err != nil {
		s.replyError(w, err)
		return
	}
	info, created := s.registry.Register(g)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
		s.logger.Info("graph registered",
			"graph_id", info.ID, "n", info.N, "m", info.M, "digest", info.Digest)
	}
	writeJSON(w, code, info)
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphListResponse{Graphs: s.registry.List()})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	if !s.registry.Remove(r.PathValue("id")) {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

func (s *Server) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req PatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, ok := s.registry.Get(id)
	if !ok {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", id))
		return
	}
	deltas, err := parseDeltas(req.Deltas, info.N)
	if err != nil {
		s.replyError(w, err)
		return
	}
	pi, err := s.registry.Patch(id, deltas)
	if err != nil {
		s.replyError(w, err)
		return
	}
	s.logger.Info("graph patched",
		"graph_id", id, "revision", pi.Revision,
		"deltas", pi.DeltasApplied, "effects", pi.Effects,
		"sources_kept", pi.SourcesKept, "sources_dropped", pi.SourcesDropped,
		"sources_repairable", pi.SourcesRepairable,
		"entries_migrated", pi.EntriesMigrated, "entries_invalidated", pi.EntriesInvalidated)
	writeJSON(w, http.StatusOK, pi)
}

// --- observability endpoints ---

// StatsResponse is the GET /v1/stats body: a full operational snapshot —
// cache, graph registry, incremental serving split and worker pool.
type StatsResponse struct {
	Rev      string        `json:"rev"`
	UptimeNS int64         `json:"uptime_ns"`
	Cache    CacheStats    `json:"cache"`
	Registry RegistryStats `json:"registry"`
	Incr     IncrStats     `json:"incr"`
	Pool     PoolStats     `json:"pool"`
}

// IncrStats is the registered-graph serving split since process start:
// per-source results served from cache/traces, rebuilt by affected-region
// repair, or recomputed from scratch — plus repairs that bailed to a full
// recompute.
type IncrStats struct {
	SourcesReused     int64 `json:"sources_reused"`
	SourcesRepaired   int64 `json:"sources_repaired"`
	SourcesRecomputed int64 `json:"sources_recomputed"`
	RepairFallbacks   int64 `json:"repair_fallbacks"`
}

// PoolStats is the query worker pool's instantaneous state.
type PoolStats struct {
	// Workers is the configured pool size.
	Workers int `json:"workers"`
	// InFlight is the number of slots currently executing a query.
	InFlight int `json:"in_flight"`
	// Queued is the number of query misses waiting for a slot.
	Queued int `json:"queued"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Rev:      s.cfg.Rev,
		UptimeNS: s.now().Sub(s.started).Nanoseconds(),
		Cache:    s.cache.Stats(),
		Registry: s.registry.Stats(),
		Incr: IncrStats{
			SourcesReused:     s.metrics.incrSourcesReused.Value(),
			SourcesRepaired:   s.metrics.incrSourcesRepaired.Value(),
			SourcesRecomputed: s.metrics.incrSourcesRecomputed.Value(),
			RepairFallbacks:   s.metrics.incrRepairFallbacks.Value(),
		},
		Pool: PoolStats{
			Workers:  s.cfg.Workers,
			InFlight: int(s.metrics.poolBusy.Value()),
			Queued:   int(s.metrics.queueDepth.Value()),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- plumbing ---

// decode parses a JSON request body strictly: unknown fields, trailing
// garbage, and oversized bodies are 400s with a JSON error body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after the JSON body")
		return false
	}
	return true
}

// replyError maps an error to its status: client mistakes are 400s,
// algorithm rejections of well-formed input (simnet.ComputeError: invalid
// option combinations the wire validation cannot see, strict-CONGEST
// budget violations, round-cap overruns) 422s, cancellations 499 (the de
// facto client-closed-request code), everything else 500.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	var br badRequest
	var nf notFoundErr
	var ce *simnet.ComputeError
	switch {
	case errors.As(err, &nf):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, 499, "request cancelled: %v", err)
	case errors.As(err, &ce):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
