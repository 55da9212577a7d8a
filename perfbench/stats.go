package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// processStart approximates the process start: package initialization runs
// before main, microseconds after exec.
var processStart = time.Now()

// metric is one named measurement with its unit and direction ("lower" or
// "higher" is better; "" for counts that describe the workload rather than
// grade it).
type metric struct {
	Name   string
	Value  float64
	Unit   string
	Better string
}

// result accumulates one run's metrics and answer checks.
type result struct {
	metrics   []metric
	index     map[string]int
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
}

func newResult() *result { return &result{index: map[string]int{}} }

// add records a metric; a later add under the same name replaces it.
func (r *result) add(name string, v float64, unit, better string) {
	if i, ok := r.index[name]; ok {
		r.metrics[i] = metric{name, v, unit, better}
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, v, unit, better})
}

func (r *result) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// attempt counts one checked operation.
func (r *result) attempt() { r.attempted.Add(1) }

// fail counts a failed, refused or wrong operation and keeps the first few
// descriptions for the report.
func (r *result) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation;
// xs need not be sorted and is not modified. NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rtCounters is a snapshot of the runtime counters the benchmark reports:
// cumulative heap allocation (bytes and objects) and CPU seconds, total and
// spent in the garbage collector.
type rtCounters struct {
	allocBytes, allocObjects uint64
	cpuTotal, cpuGC          float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() rtCounters {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return rtCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		cpuTotal:     s[2].Value.Float64(),
		cpuGC:        s[3].Value.Float64(),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		cpuTotal:     a.cpuTotal - b.cpuTotal,
		cpuGC:        a.cpuGC - b.cpuGC,
	}
}

// gcFrac is the share of CPU time the garbage collector took. The runtime
// refreshes its CPU classes at each GC cycle, so the share is taken over
// whole cycles inside the interval.
func (a rtCounters) gcFrac() float64 {
	if a.cpuTotal <= 0 {
		return 0
	}
	return a.cpuGC / a.cpuTotal
}

// sampler watches the timed phase from its own goroutine: every 10 ms it
// reads the live heap (as of the latest GC) and keeps the highest value;
// given an operation counter, it also splits the phase into windows of at
// least window completed operations and keeps each window's heap
// allocation per operation, from runtime.MemStats.TotalAlloc, which is
// exact when read (runtime/metrics counts a span's whole remainder when a
// cache refills it, too coarse for a window). A window spans one period of
// the traffic mix (one PATCH or one never-seen spec with the reads around
// it), so windows are alike and a rare heavy operation moves one window
// rather than the whole figure.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
	perOp []float64 // MB per operation, one per window
}

func startSampler(ops *atomic.Int64, window int64) *sampler {
	const tick = 10 * time.Millisecond
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(tick)
		defer t.Stop()
		var (
			ms        runtime.MemStats
			lastAlloc uint64
			lastOps   int64
		)
		if ops != nil {
			runtime.ReadMemStats(&ms)
			lastAlloc, lastOps = ms.TotalAlloc, ops.Load()
		}
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			if ops != nil {
				if o := ops.Load(); o-lastOps >= window {
					runtime.ReadMemStats(&ms)
					a := ms.TotalAlloc
					h.perOp = append(h.perOp, float64(a-lastAlloc)/float64(o-lastOps)/(1<<20))
					lastAlloc, lastOps = a, o
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler; it returns the peak live heap in MB.
func (h *sampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// envLine describes the host the figures were measured on.
func envLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s arch=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// medianSetup runs setup reps times and returns the median duration; the
// first repetition is timed from process start so that it also covers
// process initialization, and every later one starts after an untimed
// garbage collection, so each begins from the same heap. The last
// repetition's value is returned; release is called on every earlier one.
func medianSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := processStart
		if i > 0 {
			runtime.GC()
			start = time.Now()
		}
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			release(last)
		}
		last = v
	}
	return last, median(times), nil
}
