// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points — the root dsssp API for
// simulations and the service handler on a loopback listener for serving —
// checks every answer, and prints each metric by name with its unit and
// direction. The last line of standard output is a JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1) listed
// in BENCHMARK.json at the repository root.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-static --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// e2eKeys and layerKeys are the metrics the result line carries; every
// workload reports all of them (BENCHMARK.json lists the same names).
var e2eKeys = []string{"setup_s", "op_p50_ms", "alloc_mb_per_op.p50"}

var layerKeys = []string{
	"graph.make_ms",
	"simnet.awake_events", "simnet.messages",
	"simnet.ns_per_awake_event", "simnet.ns_per_message", "simnet.allocs_per_message",
	"simnet.flood_ns_per_message",
	"proto.exchange_ns_per_message", "proto.overhead_ns_per_message", "proto.allocs_per_message",
	"core.phase.participate.rounds", "core.phase.participate.messages", "core.phase.participate.awake",
	"core.phase.decompose.rounds", "core.phase.decompose.messages", "core.phase.decompose.awake",
	"core.phase.barrier.rounds", "core.phase.barrier.messages", "core.phase.barrier.awake",
	"core.phase.merge.rounds", "core.phase.merge.messages", "core.phase.merge.awake",
	"core.subproblems_max", "core.record_phases_overhead_frac",
	"decomp.build_ms", "decomp.max_overlap",
	"energybfs.ns_per_awake_event", "energybfs.allocs_per_awake_event", "energybfs.max_awake",
	"runtime.gc_cpu_frac", "runtime.mallocs_per_op",
	"trace.overhead_frac",
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(o runOpts, r *result) error
}

var workloads = []workload{
	{"sim-congest", runSimCongest},
	{"sim-sleeping", runSimSleeping},
	{"serve-static", runServeStatic},
	{"serve-dynamic", runServeDynamic},
}

// runOpts are the command-line settings a workload runs under.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// workdir holds the servers' state directories while they run.
	workdir string
	// intra is the engine's intra-round worker count (0 = sequential).
	intra int
	// short shrinks inputs and repetitions for the package's own tests.
	short bool
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-congest, sim-sleeping, serve-static, serve-dynamic")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: ".bench_build"}
	r, err := runWorkload(*w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := report(os.Stdout, w.name, o, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if r.failed.Load() > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs w and records the checks as error_rate.
func runWorkload(w workload, o runOpts) (*result, error) {
	r := newResult()
	if err := w.run(o, r); err != nil {
		return nil, err
	}
	attempted := r.attempted.Load()
	if attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	r.add("error_rate", float64(r.failed.Load())/float64(attempted), "ratio", "lower")
	return r, nil
}

// report prints the environment, every metric and the failures, and
// returns the JSON result line.
func report(out io.Writer, name string, o runOpts, r *result) (string, error) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g run=%s %s\n", name, o.seed, o.seconds, mode, envLine())
	for _, m := range r.metrics {
		dir := ""
		switch m.Better {
		case "lower":
			dir = " (lower is better)"
		case "higher":
			dir = " (higher is better)"
		}
		fmt.Fprintf(out, "  %-40s %14s %-6s%s\n", m.Name, formatValue(m.Value), m.Unit, dir)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	keys := e2eKeys
	if o.trace {
		keys = layerKeys
	}
	line := resultLine{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricJSON{},
	}
	var missing []string
	for _, k := range keys {
		m, ok := r.get(k)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, k)
			continue
		}
		line.Metrics[k] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
