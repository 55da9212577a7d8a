package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"dsssp/internal/service"
)

// serveSpec configures an open-loop serving workload.
type serveSpec struct {
	// rate is the fixed offered rate of the measured phase (1/s).
	rate float64
	// limitMS is the p99 read-latency limit max_rps is searched under.
	limitMS float64
	// capRate bounds the rate search.
	capRate float64
	// classes are the read classes whose median latency is reported.
	classes []string
	// newState builds the seed's inputs.
	newState func(o runOpts) (serveState, error)
}

// serveState is a serving workload's inputs and checks, bound to a server
// by attach.
type serveState interface {
	// attach registers and warms the workload on a fresh server.
	attach(s *server, r *result) error
	// op issues operation i and returns its class.
	op(s *server, r *result, i int) string
	// check verifies the answers recorded during the phases run since the
	// last call; the load itself only records them.
	check(r *result)
	// finish runs the final checks, too costly to run after every phase.
	finish(s *server, r *result)
	// layers runs the workload's layer probes for the traced run.
	layers(o runOpts, r *result)
	// stats adds the server counters the workload reports.
	stats(ss service.StatsResponse, r *result)
	// period is the length, in operations, of one cycle of the traffic
	// mix: the spacing of its PATCH writes or never-seen specs.
	period() int
}

// serveRun is one server with its workload state and a running operation
// index, so every phase continues the same operation stream.
type serveRun struct {
	s    *server
	st   serveState
	next int
	done atomic.Int64 // operations completed
}

func newServeRun(sp serveSpec, o runOpts, r *result, traced bool, keep int) (*serveRun, error) {
	st, err := sp.newState(o)
	if err != nil {
		return nil, err
	}
	s, err := startServer(o.workdir, traced, keep)
	if err != nil {
		return nil, err
	}
	if err := st.attach(s, r); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &serveRun{s: s, st: st}, nil
}

// phase runs n operations at rate.
func (sr *serveRun) phase(r *result, rate float64, n int, grace time.Duration) loadStats {
	base := sr.next
	sr.next += n
	return openLoop(rate, n, nprocs(), grace, func(i int) string {
		defer sr.done.Add(1)
		return sr.st.op(sr.s, r, base+i)
	})
}

func runServe(sp serveSpec, o runOpts, r *result) error {
	if o.trace {
		return traceServe(sp, o, r)
	}
	reps := 3
	if o.short {
		reps = 1
	}
	sr, setupS, err := medianSetup(reps, func() (*serveRun, error) {
		return newServeRun(sp, o, r, false, 0)
	}, func(sr *serveRun) { sr.s.close() })
	if err != nil {
		return err
	}
	defer sr.s.close()
	r.add("setup_s", setupS, "s", "lower")

	fixed := time.Duration(o.seconds * 0.75 * float64(time.Second))
	n := int(sp.rate * fixed.Seconds())
	hs := startSampler(&sr.done, int64(sr.st.period()))
	c0 := readCounters()
	st := sr.phase(r, sp.rate, n, 2*time.Second)
	d := readCounters().sub(c0)
	peak := hs.finish()
	sr.st.check(r)
	if err := checkGenerator(st, sp.limitMS); err != nil {
		return err
	}
	addLoadMetrics(r, st, sp.classes...)
	r.add("alloc_mb_per_op.p50", median(hs.perOp), "MB", "lower")
	r.add("alloc_mb_per_op", float64(d.allocBytes)/float64(n)/(1<<20), "MB", "lower")
	r.add("peak_heap_mb", peak, "MB", "lower")
	r.add("mallocs_per_op", float64(d.allocObjects)/float64(n), "count", "lower")

	probeFor := time.Duration(o.seconds * 0.25 / 10 * float64(time.Second))
	maxRPS, probes := searchMaxRPS(sp.rate, sp.capRate, probeFor, sp.limitMS, func(rate float64, n int) loadStats {
		st := sr.phase(r, rate, n, time.Duration(sp.limitMS*float64(time.Millisecond)))
		sr.st.check(r)
		return st
	})
	r.add("max_rps", maxRPS, "1/s", "higher")
	r.add("max_rps.limit_p99_ms", sp.limitMS, "ms", "")
	r.add("max_rps.probes", float64(probes), "count", "")
	sr.st.finish(sr.s, r)
	return nil
}

// traceServe is the traced run: the same fixed-rate phase on an untraced
// server and then on a server that samples every request into a flight
// recorder sized for the whole phase; the span trees give the service's
// per-stage self times, and the difference between the two phases is the
// tracing overhead. The layer probes follow.
func traceServe(sp serveSpec, o runOpts, r *result) error {
	fixed := time.Duration(o.seconds * 0.35 * float64(time.Second))
	n := int(sp.rate * fixed.Seconds())

	plain, err := newServeRun(sp, o, r, false, 0)
	if err != nil {
		return err
	}
	c0 := readCounters()
	st := plain.phase(r, sp.rate, n, 2*time.Second)
	d := readCounters().sub(c0)
	plain.st.check(r)
	plain.st.finish(plain.s, r)
	plain.s.close()
	if err := checkGenerator(st, sp.limitMS); err != nil {
		return err
	}
	untracedHit := median(st.byClass[classHit])

	traced, err := newServeRun(sp, o, r, true, 2*n+1024)
	if err != nil {
		return err
	}
	defer traced.s.close()
	tst := traced.phase(r, sp.rate, n, 2*time.Second)
	if err := checkGenerator(tst, sp.limitMS); err != nil {
		return err
	}
	addLoadMetrics(r, tst, sp.classes...)
	traced.st.check(r)
	traced.st.finish(traced.s, r)
	ss := collectSpans(traced.s.srv.Tracer().Recorder(), 2*n+1024)
	// A stage that no sampled request passed through reports nothing.
	addSpans := func(name string, xs []float64, q, scale float64, unit string) {
		if len(xs) > 0 {
			r.add(name, percentile(xs, q)*scale, unit, "lower")
		}
	}
	addSpans("service.resolve_us", ss.hitSelf["graph.resolve"], 0.5, 1, "us")
	addSpans("service.cache_lookup_us", ss.hitSelf["cache.lookup"], 0.5, 1, "us")
	addSpans("service.unattributed_us", ss.hitRootSelf, 0.5, 1, "us")
	addSpans("service.queue_wait_us.p99", ss.self["queue.wait"], 0.99, 1, "us")
	addSpans("service.repair_us", ss.dur["repair"], 0.5, 1, "us")
	addSpans("service.engine_ms", ss.dur["engine"], 0.5, 1e-3, "ms")
	r.add("trace.spans_per_request", mean(ss.spans), "count", "")
	stats, err := traced.s.stats()
	if err != nil {
		return err
	}
	traced.st.stats(stats, r)
	c := stats.Cache
	r.add("service.hit_rate", float64(c.Hits)/float64(max(c.Hits+c.Misses, 1)), "ratio", "")
	r.add("service.shared_rate", float64(c.SingleflightDedup)/float64(max(c.Hits, 1)), "ratio", "")

	plain.st.layers(o, r)
	// The runtime figures describe serving, so they come from the
	// untraced phase (overriding the engine probes' own).
	r.add("runtime.gc_cpu_frac", d.gcFrac(), "ratio", "lower")
	r.add("runtime.mallocs_per_op", float64(d.allocObjects)/float64(n), "count", "lower")
	r.add("trace.overhead_frac", median(tst.byClass[classHit])/untracedHit-1, "ratio", "lower")
	return nil
}
