package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsssp/internal/graph"
	"dsssp/internal/obs/trace"
	"dsssp/internal/service"
)

// server is one service instance behind a loopback listener, with a client
// limited to nproc connections.
type server struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
}

// startServer starts a server with Workers = nproc and MaxIntraWorkers = 1.
// Untraced servers sample no requests; traced ones sample every request
// into a flight recorder holding keep traces.
func startServer(workdir string, traced bool, keep int) (*server, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		HistoryDir:      filepath.Join(dir, "history"),
		Workers:         nprocs(),
		MaxIntraWorkers: 1,
		TraceSampleRate: -1,
	}
	if traced {
		cfg.TraceSampleRate = 1
		cfg.TraceRecent = keep
	}
	srv, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nprocs(),
			MaxIdleConnsPerHost: nprocs(),
			DisableCompression:  true,
		}},
		dir: dir,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the listener, stops the server's jobs and removes its
// state directory.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// reply is one response with the headers the benchmark classifies by.
type reply struct {
	status   int
	body     []byte
	cache    string
	incr     string
	revision int
}

func (s *server) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	rep := reply{
		status: resp.StatusCode,
		body:   b,
		cache:  resp.Header.Get("X-Dsssp-Cache"),
		incr:   resp.Header.Get("X-Dsssp-Incr"),
	}
	if v := resp.Header.Get("X-Dsssp-Graph-Revision"); v != "" {
		rep.revision, _ = strconv.Atoi(v)
	}
	if rep.status/100 != 2 {
		return rep, fmt.Errorf("%s %s: status %d: %s", method, path, rep.status, bytes.TrimSpace(b))
	}
	return rep, nil
}

func (s *server) postJSON(path string, v any) (reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return s.do(http.MethodPost, path, b)
}

func (s *server) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	rep, err := s.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(rep.body, &st)
}

// Response classes. Reads are every class but classPatch.
const (
	classHit      = "hit"
	classComputed = "computed"
	classRepaired = "repaired"
	classPatch    = "patch"
	classFailed   = "failed"
)

// classify names how a read was served, from its headers alone.
func classify(rep reply) string {
	switch {
	case rep.incr == "repaired":
		return classRepaired
	case rep.cache == "hit":
		return classHit
	default:
		return classComputed
	}
}

// loadStats is what one open-loop phase measured.
type loadStats struct {
	// lat holds every read's latency, timed from when it was due (ms);
	// byClass splits the same samples by class (patches only there).
	lat     []float64
	byClass map[string][]float64
	// late holds the generator's own lateness (ms): how far past the due
	// time a worker that was waiting for it actually woke.
	late []float64
	// skipped counts operations not started because the phase ran past
	// its deadline with a backlog.
	skipped  int
	offered  float64
	achieved float64
	// lastStartDelayMS is how late the last operation started: a backlog
	// that grows over the phase shows here.
	lastStartDelayMS float64
}

// openLoop issues n operations at a fixed rate: operation i is due at
// start + i/rate whatever happened to earlier ones, and is issued by the
// first free worker out of workers. Latency runs from the due time, so a
// stall is charged to every operation it delays; only when a worker was
// idle and its timer fired late does the latency run from the send, the
// timer's lateness being the generator's. Operations still unsent grace
// past the last due time are skipped and counted.
func openLoop(rate float64, n, workers int, grace time.Duration, issue func(i int) (class string)) loadStats {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	deadline := start.Add(time.Duration(n)*interval + grace)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		st      = loadStats{byClass: map[string][]float64{}, offered: rate}
		lastEnd time.Time
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				lat, late []float64
				byClass   = map[string][]float64{}
				skipped   int
				end       time.Time
				lastDelay = -1.0
			)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				from := due
				if wait := time.Until(due); wait > 0 {
					// The worker was idle: the operation is sent when the
					// timer fires, and the timer's own lateness is the
					// generator's, reported apart from the latency.
					time.Sleep(wait)
					from = time.Now()
					late = append(late, ms(from.Sub(due)))
				} else if time.Now().After(deadline) {
					skipped++
					continue
				}
				startDelay := time.Since(due)
				class := issue(i)
				end = time.Now()
				d := ms(end.Sub(from))
				byClass[class] = append(byClass[class], d)
				if class != classPatch {
					lat = append(lat, d)
				}
				if i == n-1 {
					lastDelay = ms(startDelay)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if end.After(lastEnd) {
				lastEnd = end
			}
			if lastDelay >= 0 {
				st.lastStartDelayMS = lastDelay
			}
			st.lat = append(st.lat, lat...)
			st.late = append(st.late, late...)
			st.skipped += skipped
			for c, xs := range byClass {
				st.byClass[c] = append(st.byClass[c], xs...)
			}
		}()
	}
	wg.Wait()
	if !lastEnd.IsZero() {
		done := 0
		for _, xs := range st.byClass {
			done += len(xs)
		}
		st.achieved = float64(done) / lastEnd.Sub(start).Seconds()
	}
	if st.skipped > 0 {
		st.lastStartDelayMS = ms(time.Since(start)) // the backlog never drained
	}
	return st
}

// passes reports whether a phase met the latency limit on reads without a
// growing backlog or any failure.
func (st loadStats) passes(limitMS float64) bool {
	return st.skipped == 0 && len(st.byClass[classFailed]) == 0 &&
		percentile(st.lat, 0.99) <= limitMS && st.lastStartDelayMS <= limitMS
}

// searchMaxRPS finds the highest offered rate that passes, probing each
// rate for probeFor: it doubles from base while probes pass, then bisects
// the last bracket in log space until the bracket is narrower than 3%.
func searchMaxRPS(base, capRate float64, probeFor time.Duration, limitMS float64, probe func(rate float64, n int) loadStats) (float64, int) {
	run := func(rate float64) bool {
		n := max(int(rate*probeFor.Seconds()), 10)
		return probe(rate, n).passes(limitMS)
	}
	probes := 0
	lo, hi := 0.0, 0.0
	for rate := base; ; rate *= 2 {
		probes++
		if !run(rate) {
			hi = rate
			break
		}
		lo = rate
		if rate >= capRate {
			return lo, probes
		}
	}
	if lo == 0 {
		lo = hi / 16
	}
	for hi/lo > 1.03 {
		mid := math.Sqrt(lo * hi)
		probes++
		if run(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// addLoadMetrics reports a fixed-rate phase: read latencies overall and by
// class, and the generator's own figures.
func addLoadMetrics(r *result, st loadStats, classes ...string) {
	r.add("op_p50_ms", median(st.lat), "ms", "lower")
	r.add("p99_ms", percentile(st.lat, 0.99), "ms", "lower")
	r.add("reads", float64(len(st.lat)), "count", "")
	for _, c := range classes {
		if xs := st.byClass[c]; len(xs) > 0 {
			r.add(c+"_p50_ms", median(xs), "ms", "lower")
		}
		r.add(c+"_count", float64(len(st.byClass[c])), "count", "")
	}
	r.add("loadgen.late_ms.p99", percentile(st.late, 0.99), "ms", "lower")
	r.add("loadgen.offered_rps", st.offered, "1/s", "")
	r.add("loadgen.achieved_rps", st.achieved, "1/s", "higher")
}

// errGeneratorLate marks a run refused because the load generator's own
// timers fired late: the host could not keep the schedule.
var errGeneratorLate = errors.New("load generator ran late")

// checkGenerator rejects a phase whose generator could not keep its own
// schedule: its figures would describe the generator, not the program.
func checkGenerator(st loadStats, limitMS float64) error {
	if p := percentile(st.late, 0.99); p > limitMS {
		return fmt.Errorf("%w (p99 %.2f ms > %.2f ms); the run is invalid", errGeneratorLate, p, limitMS)
	}
	if st.skipped > 0 {
		counts := map[string]int{}
		for c, xs := range st.byClass {
			counts[c] = len(xs)
		}
		return fmt.Errorf("load generator skipped %d operations at the fixed rate (served %v); the run is invalid", st.skipped, counts)
	}
	return nil
}

// spanStats summarizes the span trees a traced server recorded: duration
// and self time (duration minus the children's durations) per span name,
// the same for cache hits alone, and the span count per request.
type spanStats struct {
	dur         map[string][]float64 // µs
	self        map[string][]float64 // µs
	hitSelf     map[string][]float64 // µs, cache hits only
	hitRootSelf []float64            // µs
	spans       []float64
}

func collectSpans(tr *trace.FlightRecorder, limit int) spanStats {
	ss := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, hitSelf: map[string][]float64{}}
	for _, t := range tr.Traces(trace.Filter{Limit: limit}) {
		ss.spans = append(ss.spans, float64(len(t.Spans)))
		child := map[string]int64{}
		hit := false
		for _, sp := range t.Spans {
			if sp.ParentID != "" {
				child[sp.ParentID] += sp.DurationNano
			}
			if sp.Name == "cache.lookup" && sp.Attrs["result"] == "hit" {
				hit = true
			}
		}
		for _, sp := range t.Spans {
			self := float64(sp.DurationNano-child[sp.SpanID]) / 1e3
			name := sp.Name
			if sp.ParentID == "" {
				name = "root"
			}
			ss.self[name] = append(ss.self[name], self)
			ss.dur[name] = append(ss.dur[name], float64(sp.DurationNano)/1e3)
			if hit {
				ss.hitSelf[name] = append(ss.hitSelf[name], self)
			}
		}
		if hit {
			ss.hitRootSelf = append(ss.hitRootSelf, ss.hitSelf["root"][len(ss.hitSelf["root"])-1])
		}
	}
	return ss
}

// weightSeed is the service's documented spec-seed contract for generator
// graphs: the structure stream takes the spec seed verbatim, and the
// weight stream folds family, n, weight kind and max_w into the seed before
// one LCG step. The benchmark rebuilds every generator spec with it to
// check served answers on its own copy of the graph.
func weightSeed(spec service.GraphSpec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", spec.Family, spec.N)
	if spec.Weights != nil {
		fmt.Fprintf(h, "%s|%d", spec.Weights.Kind, spec.Weights.MaxW)
	}
	x := spec.Seed ^ int64(h.Sum64())
	return x*6364136223846793005 + 1442695040888963407
}

// specGraph builds a uniform-weight generator spec's graph.
func specGraph(spec service.GraphSpec) *graph.Graph {
	return graph.Make(graph.Family(spec.Family), spec.N, graph.UniformWeights(spec.Weights.MaxW, weightSeed(spec)), spec.Seed)
}

// checkSSSP compares a served /v1/sssp body with the reference distances.
func checkSSSP(body []byte, ref []int64) (service.SSSPResponse, error) {
	var resp service.SSSPResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, err
	}
	if !slices.Equal(resp.Dist, ref) {
		return resp, errors.New("distances differ from Dijkstra")
	}
	return resp, nil
}

// checkPath compares a served /v1/path body with the reference distance
// and the canonical min-ID witness path.
func checkPath(body []byte, g *graph.Graph, src, dst graph.NodeID, ref []int64) (service.PathResponse, error) {
	var resp service.PathResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, err
	}
	if resp.Dist != ref[dst] {
		return resp, fmt.Errorf("path %d→%d: dist %d, Dijkstra %d", src, dst, resp.Dist, ref[dst])
	}
	var want []int64
	if ref[dst] != graph.Inf {
		parent := graph.WitnessParents(g, src, ref)
		for v := dst; ; v = parent[v] {
			want = append(want, int64(v))
			if v == src {
				break
			}
		}
	}
	if !slices.Equal(resp.Path, want) {
		return resp, fmt.Errorf("path %d→%d: %v, want the witness path %v", src, dst, resp.Path, want)
	}
	return resp, nil
}

// forEachParallel calls f(0..n-1) from nproc goroutines and returns the
// first error.
func forEachParallel(n int, f func(i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make(chan error, n)
	)
	for w := 0; w < nprocs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// pick is a deterministic hash of (seed, i, salt) in [0, n).
func pick(seed int64, i, salt, n int) int {
	return int(uint64(subSeed(seed^int64(salt)<<40, i)) % uint64(n))
}
