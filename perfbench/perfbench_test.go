package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with the
// code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func shortRun(t *testing.T, name string, seed int64, trace bool, intra int) *result {
	t.Helper()
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		o := runOpts{seed: seed, seconds: 1, trace: trace, workdir: t.TempDir(), intra: intra, short: true}
		r, err := runWorkload(w, o)
		// A run whose generator ran late is invalid, not wrong: on a busy
		// host (such as one also running the go command) a short run's
		// few samples can put the timers' p99 past the limit. Run it again.
		for retry := 0; retry < 2 && errors.Is(err, errGeneratorLate); retry++ {
			t.Logf("%s: %v; running it again", name, err)
			r, err = runWorkload(w, o)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	t.Fatalf("no workload %q", name)
	return nil
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	if !slices.Equal(e2e, e2eKeys) {
		t.Errorf("end_to_end %v, code reports %v", e2e, e2eKeys)
	}
	if !slices.Equal(layers, layerKeys) {
		t.Errorf("per_layer %v, code reports %v", layers, layerKeys)
	}
	for _, w := range bf.Workloads {
		if !slices.ContainsFunc(workloads, func(x workload) bool { return x.name == w.Name }) {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}

// printedMetrics are the metrics each workload's untraced (false) and traced
// (true) runs print besides the result line's.
var printedMetrics = map[string]map[bool][]string{
	"sim-congest": {
		false: {"error_rate", "solve_s.p50", "apsp_s", "alloc_mb_per_op", "peak_heap_mb", "rounds", "max_awake", "max_edge_messages", "makespan_random"},
		true:  {"simnet.lost_messages", "energybfs.lost_messages", "sched.compose_ms", "sched.pool_busy_frac", "sched.trace_entries", "core.phase.cutter.rounds"},
	},
	"serve-static": {
		false: {"error_rate", "alloc_mb_per_op", "peak_heap_mb", "p99_ms", "hit_p50_ms", "computed_p50_ms", "max_rps"},
		true: {"service.resolve_us", "service.cache_lookup_us", "service.unattributed_us", "service.queue_wait_us.p99",
			"service.engine_ms", "service.hit_rate", "service.shared_rate", "trace.spans_per_request",
			"loadgen.late_ms.p99", "loadgen.offered_rps", "loadgen.achieved_rps"},
	},
	"serve-dynamic": {
		false: {"error_rate", "alloc_mb_per_op", "peak_heap_mb", "p99_ms", "hit_p50_ms", "repaired_p50_ms", "patch_p50_ms", "max_rps", "rounds_checks"},
		true: {"graph.apply_deltas_us", "incr.classify_us", "incr.repair_us.p50", "incr.affected_frac.p50", "incr.bail_rate",
			"service.repair_us", "service.migrated_per_patch", "service.invalidated_per_patch", "loadgen.late_ms.p99"},
	},
}

// TestWorkloadsReportEveryMetric runs each listed workload untraced and
// traced in short mode: every answer must check out, and the result line
// must carry every metric BENCHMARK.json names, in its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			r := shortRun(t, w.Name, 7, trace, 0)
			if f := r.failed.Load(); f != 0 {
				t.Errorf("%s trace=%v: %d failed checks: %v", w.Name, trace, f, r.failures)
			}
			line, err := report(io.Discard, w.Name, runOpts{trace: trace}, r)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var got resultLine
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted == 0 {
				t.Errorf("%s trace=%v: result line %s", w.Name, trace, line)
			}
			for name, unit := range units[trace] {
				if m, ok := got.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %q", w.Name, trace, name, m, unit)
				}
			}
			if len(got.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", w.Name, trace, len(got.Metrics), len(units[trace]))
			}
			for _, name := range printedMetrics[w.Name][trace] {
				if m, ok := r.get(name); !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s not reported", w.Name, trace, name)
				}
			}
			if m, _ := r.get("rounds_checks.min_revision"); w.Name == "serve-dynamic" && m.Value < 2 {
				t.Errorf("%s trace=%v: served rounds checked only on revision %v, want a patched one", w.Name, trace, m.Value)
			}
			if m, _ := r.get("error_rate"); m.Value != 0 {
				t.Errorf("%s trace=%v: error_rate %v", w.Name, trace, m.Value)
			}
		}
	}
}

// TestModelCountsDeterministic checks that the model counts repeat exactly
// for a seed, across runs and across intra-round worker counts.
func TestModelCountsDeterministic(t *testing.T) {
	counts := func(intra int) []float64 {
		r := shortRun(t, "sim-congest", 11, false, intra)
		var out []float64
		for _, name := range []string{"rounds", "max_awake", "max_edge_messages", "makespan_random"} {
			m, ok := r.get(name)
			if !ok {
				t.Fatalf("%s not reported", name)
			}
			out = append(out, m.Value)
		}
		return out
	}
	first := counts(1)
	if again := counts(1); !slices.Equal(first, again) {
		t.Errorf("same seed, two runs: %v then %v", first, again)
	}
	if par := counts(runtime.NumCPU()); !slices.Equal(first, par) {
		t.Errorf("1 intra-round worker %v, %d workers %v", first, runtime.NumCPU(), par)
	}
}
