// Command dsssp-serve is the long-running serving daemon over the dsssp
// stack: an HTTP API answering SSSP/APSP/path queries from a bounded
// worker pool behind a content-addressed result cache, plus registered
// graphs that can be patched edge by edge. Scenario sweeps and their
// envelope-ratio history are offline jobs: cmd/dsssp-bench writes the
// reports and cmd/dsssp-diff gates and chains them.
//
// Usage:
//
//	dsssp-serve                             # serve on :8080
//	dsssp-serve -addr :9000 -cache-bytes 268435456
//	dsssp-serve -rev $(git rev-parse --short HEAD)   # revision shown in /v1/stats
//	dsssp-serve -debug-addr 127.0.0.1:6060           # pprof + metrics debug listener
//	dsssp-serve -load http://localhost:8080          # hammer a running server
//
// Endpoints:
//
//	POST   /v1/sssp        exact SSSP (graph inline or by generator spec; ?trace=1 for phases)
//	POST   /v1/apsp        all-pairs via the Section 1.1 composition (?trace=1 for phases)
//	POST   /v1/path        distance + one shortest path source→target
//	GET    /v1/stats       cache/registry/incr/pool snapshot
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness
//
// With -debug-addr set, a second listener (keep it private) serves
// net/http/pprof under /debug/pprof/, a second /metrics mount, and the
// trace flight recorder under /debug/traces (list with filters, single
// trace by ID, JSONL export).
//
// Every request gets an X-Dsssp-Request-Id (the request's trace ID unless
// the client supplied its own), echoed in error JSON bodies and in the
// per-request completion log line (structured slog JSON on stderr), and a
// W3C traceparent is echoed/minted so client traces link to server spans.
//
// Both listeners bound how long a client may take to send headers and how
// long an idle keep-alive connection is held. There is no read or write
// deadline: a computed query may legitimately run for minutes.
//
// The process shuts down cleanly on SIGINT/SIGTERM: the listener drains,
// the registry is flushed, and the exit status is 0 — which is what the
// CI smoke job asserts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsssp/internal/service"
)

// Listener timeouts, shared by the API and debug listeners.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "result cache byte budget")
		graphBytes  = flag.Int64("graph-bytes", 256<<20, "dynamic-graph registry byte budget (registered graphs + per-source traces)")
		registryDir = flag.String("registry-dir", "", "spill registered graphs and their traces to this directory and warm-start from it on boot (empty = in-memory only)")
		repairMax   = flag.Float64("repair-max-affected", 0.5, "repair a dirty source only while the affected region stays under this fraction of the graph (0 = no cutoff, negative = disable repair)")
		workers     = flag.Int("workers", 0, "query worker pool size (0 = NumCPU)")
		intraCap    = flag.Int("max-intra", 0, "cap on a query's intra-round simulation workers (0 = NumCPU, 1 = force sequential; results are byte-identical either way)")
		rev         = flag.String("rev", "", "git revision reported by /v1/stats (default: git rev-parse --short HEAD, else \"unknown\")")
		maxN        = flag.Int("max-n", 4096, "largest accepted graph size")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof, /metrics, and /debug/traces on this private address (empty = disabled)")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests recorded into the trace flight recorder (1 = all, 0 = none; unsampled requests pay no tracing cost)")
		traceRecent = flag.Int("trace-recent", 256, "flight recorder: recent traces kept")
		traceKept   = flag.Int("trace-retained", 64, "flight recorder: slow/errored traces kept beyond the recent window")
		slowQuery   = flag.Duration("slow-query", time.Second, "log requests slower than this at Warn")
		logLevel    = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		load        = flag.String("load", "", "run the service-load workload against this base URL instead of serving")
		loadDynamic = flag.String("load-dynamic", "", "run the dynamic-graph workload (register, interleave PATCHes with per-source queries) against this base URL instead of serving")
		loadReqs    = flag.Int("load-requests", 200, "service-load: total requests")
		loadConc    = flag.Int("load-concurrency", 8, "service-load: concurrent clients")
		loadGraphs  = flag.Int("load-graphs", 4, "service-load: distinct graphs (requests >> graphs ⇒ cache-hit steady state)")
		loadN       = flag.Int("load-n", 48, "service-load: graph size")
		loadSrcs    = flag.Int("load-sources", 32, "dynamic load: distinct query sources")
		loadPatchEv = flag.Int("load-patch-every", 50, "dynamic load: one single-edge PATCH per this many queries")
		loadSeed    = flag.Int64("load-seed", 1, "dynamic load: graph and patch-stream seed")
		loadExpect  = flag.Bool("load-expect-repair", false, "dynamic load: fail unless at least one query was served by affected-region repair (when patches dirtied repairable sources)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *load != "" {
		runLoad(ctx, *load, service.LoadOptions{
			Concurrency: *loadConc, Requests: *loadReqs, Graphs: *loadGraphs, N: *loadN,
		})
		return
	}
	if *loadDynamic != "" {
		runLoadDynamic(ctx, *loadDynamic, service.DynamicLoadOptions{
			Concurrency: *loadConc, Requests: *loadReqs, N: *loadN,
			Sources: *loadSrcs, PatchEvery: *loadPatchEv, Seed: *loadSeed,
			ExpectRepair: *loadExpect,
		})
		return
	}

	if *rev == "" {
		*rev = gitRev()
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		die(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv, err := service.New(service.Config{
		CacheBytes:         *cacheBytes,
		GraphBytes:         *graphBytes,
		RegistryDir:        *registryDir,
		RepairMaxAffected:  *repairMax,
		Workers:            *workers,
		MaxIntraWorkers:    *intraCap,
		Rev:                *rev,
		MaxN:               *maxN,
		Logger:             logger,
		SlowQueryThreshold: *slowQuery,
		TraceSampleRate:    resolveSampleRate(*traceSample),
		TraceRecent:        *traceRecent,
		TraceRetained:      *traceKept,
	})
	if err != nil {
		die(err)
	}

	if *debugAddr != "" {
		// The debug listener is intentionally separate from the API
		// listener: pprof exposes heap contents and must never ride on the
		// public address. DefaultServeMux is avoided on both.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", srv.Metrics().Handler())
		dmux.Handle("/debug/traces", srv.TraceHandler())
		dmux.Handle("/debug/traces/", srv.TraceHandler())
		debugSrv := newHTTPServer(*debugAddr, dmux)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "rev", *rev)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		die(err) // the listener failed outright (port taken, …)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests (bounded),
	// then flush the registry.
	logger.Info("signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("draining listener", "error", err.Error())
	}
	srv.Close()
	logger.Info("clean shutdown")
}

// newHTTPServer builds a listener with the shared header and idle
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runLoad drives the service-load workload and prints the JSON report.
func runLoad(ctx context.Context, baseURL string, opt service.LoadOptions) {
	rep, err := service.RunLoad(ctx, nil, strings.TrimRight(baseURL, "/"), opt)
	if err != nil && !errors.Is(err, context.Canceled) {
		die(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	fmt.Fprintf(os.Stderr, "dsssp-serve: load: %d requests, %.0f%% cache hits, %.1f req/s, %d errors\n",
		rep.Requests, 100*rep.HitRate, rep.RPS, rep.Errors)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// runLoadDynamic drives the dynamic-graph workload and prints the JSON
// report: reuse rate plus the reused/repaired/recomputed latency split.
func runLoadDynamic(ctx context.Context, baseURL string, opt service.DynamicLoadOptions) {
	rep, err := service.RunLoadDynamic(ctx, nil, strings.TrimRight(baseURL, "/"), opt)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	fmt.Fprintf(os.Stderr,
		"dsssp-serve: dynamic load: %d requests, %d patches, %.0f%% reuse: %d reused (p50 %.2fms), %d repaired (p50 %.2fms), %d recomputed (p50 %.2fms), %d errors\n",
		rep.Requests, rep.Patches, 100*rep.ReuseRate,
		rep.Reused, float64(rep.ReusedP50NS)/1e6,
		rep.Repaired, float64(rep.RepairedP50NS)/1e6,
		rep.Recomputed, float64(rep.RecomputedP50NS)/1e6, rep.Errors)
	if err != nil && !errors.Is(err, context.Canceled) {
		die(err)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// resolveSampleRate maps the flag's "0 = none" convention onto the
// Config's "0 = default, negative = none" one.
func resolveSampleRate(rate float64) float64 {
	if rate <= 0 {
		return -1
	}
	return rate
}

// gitRev best-effort resolves the working tree's short revision for
// /v1/stats; services deployed from tarballs pass -rev.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "dsssp-serve:", err)
	os.Exit(1)
}
