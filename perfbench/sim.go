package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dsssp"
	"dsssp/internal/graph"
)

// simSpec sizes a simulation workload: SSSP solves on seeded
// RandomConnected(n, extra, Uniform(maxW)) graphs, one solve per graph per
// pass, plus (apspN > 0) one APSP fan-out on a random apspN-node graph.
type simSpec struct {
	model    dsssp.Model
	n, extra int
	maxW     int64
	graphs   int
	apspN    int
	// phaseGraphs is how many graphs the traced run solves with the span
	// ledger on for the per-phase counts.
	phaseGraphs int
}

func runSimCongest(o runOpts, r *result) error {
	sp := simSpec{model: dsssp.ModelCongest, n: 256, extra: 512, maxW: 256, graphs: 7, apspN: 32, phaseGraphs: 2}
	if o.short {
		sp = simSpec{model: dsssp.ModelCongest, n: 40, extra: 80, maxW: 40, graphs: 2, apspN: 8, phaseGraphs: 1}
	}
	return runSim(sp, o, r)
}

func runSimSleeping(o runOpts, r *result) error {
	sp := simSpec{model: dsssp.ModelSleeping, n: 64, extra: 64, maxW: 64, graphs: 14, phaseGraphs: 4}
	if o.short {
		sp = simSpec{model: dsssp.ModelSleeping, n: 16, extra: 16, maxW: 16, graphs: 2, phaseGraphs: 1}
	}
	return runSim(sp, o, r)
}

// simInput is one seed's inputs with their reference answers.
type simInput struct {
	graphs  []*graph.Graph
	sources []graph.NodeID
	refs    [][]int64
	apsp    *graph.Graph
	apspRef [][]int64
	makeMS  []float64
}

// subSeed derives the i-th independent stream from a workload seed.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

func buildSimInput(sp simSpec, seed int64) simInput {
	var in simInput
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sp.graphs; i++ {
		s := subSeed(seed, i)
		t0 := time.Now()
		g := graph.RandomConnected(sp.n, sp.extra, graph.UniformWeights(sp.maxW, s), s)
		in.makeMS = append(in.makeMS, ms(time.Since(t0)))
		src := graph.NodeID(rng.Intn(sp.n))
		in.graphs = append(in.graphs, g)
		in.sources = append(in.sources, src)
		in.refs = append(in.refs, graph.Dijkstra(g, src))
	}
	if sp.apspN > 0 {
		s := subSeed(seed, -1)
		in.apsp = graph.RandomConnected(sp.apspN, sp.apspN, graph.UniformWeights(int64(sp.apspN), s), s)
		for v := 0; v < sp.apspN; v++ {
			in.apspRef = append(in.apspRef, graph.Dijkstra(in.apsp, graph.NodeID(v)))
		}
	}
	return in
}

// warmSim runs one small solve in the model so the first timed solve does
// not pay one-time initialization.
func warmSim(model dsssp.Model) error {
	g := graph.RandomConnected(12, 12, graph.UniformWeights(12, 1), 1)
	_, err := dsssp.SSSP(g, 0, &dsssp.Options{Model: model})
	return err
}

func runSim(sp simSpec, o runOpts, r *result) error {
	// Set-up takes milliseconds here, so it is repeated often enough that
	// timer and scheduler noise leave the median alone.
	reps := 31
	if o.short {
		reps = 1
	}
	in, setupS, err := medianSetup(reps, func() (simInput, error) {
		in := buildSimInput(sp, o.seed)
		return in, warmSim(sp.model)
	}, func(simInput) {})
	if err != nil {
		return err
	}
	if o.trace {
		return traceSim(sp, o, in, r)
	}
	r.add("setup_s", setupS, "s", "lower")

	opts := &dsssp.Options{Model: sp.model, IntraWorkers: o.intra}
	var (
		solveMS, allocMB              []float64
		allocBytes, allocObjs         uint64
		rounds, maxAwake, maxEdgeMsgs int64
		apspS                         float64
		makespan                      int64
	)
	dur := time.Duration(o.seconds * float64(time.Second))
	hs := startSampler(nil, 0)
	start := time.Now()
	for i := 0; i < len(in.graphs) || time.Since(start) < dur; i++ {
		k := i % len(in.graphs)
		c0 := readCounters()
		t0 := time.Now()
		res, err := dsssp.SSSP(in.graphs[k], in.sources[k], opts)
		dt := time.Since(t0)
		d := readCounters().sub(c0)
		r.attempt()
		if err != nil {
			r.fail("solve %d: %v", i, err)
			continue
		}
		if !slices.Equal(res.Dist, in.refs[k]) {
			r.fail("solve %d (graph %d, source %d): distances differ from Dijkstra", i, k, in.sources[k])
		}
		solveMS = append(solveMS, ms(dt))
		allocMB = append(allocMB, float64(d.allocBytes)/(1<<20))
		allocBytes += d.allocBytes
		allocObjs += d.allocObjects
		if i < len(in.graphs) {
			rounds += res.Metrics.Rounds
			maxAwake = max(maxAwake, res.Metrics.MaxAwake)
			maxEdgeMsgs = max(maxEdgeMsgs, res.Metrics.MaxEdgeMessages)
		}
		if i == len(in.graphs)-1 && in.apsp != nil {
			apspS, makespan = timeAPSP(in, o, r)
		}
	}
	peak := hs.finish()

	solves := float64(len(solveMS))
	r.add("op_p50_ms", median(solveMS), "ms", "lower")
	r.add("alloc_mb_per_op.p50", median(allocMB), "MB", "lower")
	r.add("alloc_mb_per_op", float64(allocBytes)/solves/(1<<20), "MB", "lower")
	r.add("peak_heap_mb", peak, "MB", "lower")
	r.add("solve_s.p50", median(solveMS)/1e3, "s", "lower")
	r.add("solves", solves, "count", "")
	if in.apsp != nil {
		r.add("apsp_s", apspS, "s", "lower")
	}
	r.add("rounds", float64(rounds), "rounds", "lower")
	r.add("max_awake", float64(maxAwake), "rounds", "lower")
	r.add("max_edge_messages", float64(maxEdgeMsgs), "messages", "lower")
	if in.apsp != nil {
		r.add("makespan_random", float64(makespan), "rounds", "lower")
	}
	r.add("mallocs_per_op", float64(allocObjs)/solves, "count", "lower")
	return nil
}

// timeAPSP runs the workload's APSP fan-out once with Workers = nproc and
// checks every row.
func timeAPSP(in simInput, o runOpts, r *result) (float64, int64) {
	t0 := time.Now()
	res, err := dsssp.APSP(in.apsp, &dsssp.Options{Model: dsssp.ModelCongest, Workers: nprocs(), IntraWorkers: o.intra}, 1)
	dt := time.Since(t0).Seconds()
	r.attempt()
	if err != nil {
		r.fail("apsp: %v", err)
		return dt, 0
	}
	for s, row := range res.Dist {
		if !slices.Equal(row, in.apspRef[s]) {
			r.fail("apsp row %d differs from Dijkstra", s)
			break
		}
	}
	return dt, res.Composition.MakespanRandom
}

// traceSim is the traced run of a simulation workload: paired solves with
// the span ledger off and on give the per-solve host costs and the ledger's
// overhead, the first phaseGraphs ledger solves give the per-phase counts,
// and the layer probes time calls into simnet, proto, decomp, graph and
// (with APSP) sched on the workload's own graphs.
func traceSim(sp simSpec, o runOpts, in simInput, r *result) error {
	dur := time.Duration(o.seconds * 0.6 * float64(time.Second))
	ep := newEnginePairs(sp.model)
	start := time.Now()
	for i := 0; i < sp.phaseGraphs || time.Since(start) < dur; i++ {
		k := i % len(in.graphs)
		ep.pair(r, in.graphs[k], in.sources[k], in.refs[k], i%2 == 1, i < sp.phaseGraphs)
	}
	ep.report(r)
	r.add("trace.overhead_frac", ep.overheadFrac(), "ratio", "lower")

	r.add("graph.make_ms", median(in.makeMS), "ms", "lower")
	probeFlood(r, in.graphs[0], sp.model, o.short)
	probeDecomp(r, in.graphs)
	probeEnergyBFS(r, in.graphs, in.sources, time.Duration(o.seconds*0.1*float64(time.Second)))
	if in.apsp != nil {
		if err := probeSched(r, in.apsp, in.apspRef); err != nil {
			return fmt.Errorf("sched probe: %w", err)
		}
	}
	return nil
}
