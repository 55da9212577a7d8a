package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"dsssp"
	"dsssp/internal/core"
	"dsssp/internal/decomp"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/sched"
	"dsssp/internal/simnet"
)

func nprocs() int { return runtime.NumCPU() }

// enginePairs times paired solves of one graph with the span ledger off
// and on. The ledger-off solve gives the simulator's per-event host costs;
// the ledger-on solve gives the per-phase counts (for the first, fixed set
// of graphs, so the counts are deterministic) and the ledger's overhead.
type enginePairs struct {
	model  dsssp.Model
	c0     rtCounters
	ratios []float64

	nsPerAwake, nsPerMsg, allocsPerMsg, mallocs []float64

	counted           int
	awake, msgs, lost int64
	phases            map[string]*[3]int64
	subproblemsMax    int
}

func newEnginePairs(model dsssp.Model) *enginePairs {
	return &enginePairs{model: model, c0: readCounters(), phases: map[string]*[3]int64{}}
}

func (ep *enginePairs) solve(r *result, g *graph.Graph, src graph.NodeID, ref []int64, phases bool) (*dsssp.Result, time.Duration, rtCounters, bool) {
	c0 := readCounters()
	t0 := time.Now()
	res, err := dsssp.SSSP(g, src, &dsssp.Options{Model: ep.model, RecordPhases: phases})
	dt := time.Since(t0)
	d := readCounters().sub(c0)
	r.attempt()
	if err != nil {
		r.fail("engine solve from %d: %v", src, err)
		return nil, dt, d, false
	}
	if !slices.Equal(res.Dist, ref) {
		r.fail("engine solve from %d: distances differ from Dijkstra", src)
	}
	return res, dt, d, true
}

// pair solves g from src with the ledger off and on (ledger first when
// onFirst); count adds the ledger solve to the per-phase counts.
func (ep *enginePairs) pair(r *result, g *graph.Graph, src graph.NodeID, ref []int64, onFirst, count bool) {
	var (
		on, off     *dsssp.Result
		onD, offD   time.Duration
		offC        rtCounters
		okOn, okOff bool
	)
	if onFirst {
		on, onD, _, okOn = ep.solve(r, g, src, ref, true)
	}
	off, offD, offC, okOff = ep.solve(r, g, src, ref, false)
	if !onFirst {
		on, onD, _, okOn = ep.solve(r, g, src, ref, true)
	}
	if !okOn || !okOff {
		return
	}
	ep.ratios = append(ep.ratios, float64(onD)/float64(offD))
	m := off.Metrics
	ep.nsPerAwake = append(ep.nsPerAwake, float64(offD)/float64(max(m.TotalAwake, 1)))
	ep.nsPerMsg = append(ep.nsPerMsg, float64(offD)/float64(max(m.Messages, 1)))
	ep.allocsPerMsg = append(ep.allocsPerMsg, float64(offC.allocObjects)/float64(max(m.Messages, 1)))
	ep.mallocs = append(ep.mallocs, float64(offC.allocObjects))
	ep.subproblemsMax = max(ep.subproblemsMax, off.SubproblemsMax)

	var rounds, msgs, awake int64
	for _, s := range on.Metrics.Spans {
		rounds += s.Rounds
		msgs += s.Messages
		awake += s.AwakeRounds
	}
	om := on.Metrics
	if rounds != om.Rounds || msgs != om.Messages || awake != om.TotalAwake {
		r.fail("span ledger does not partition the totals: rounds %d/%d messages %d/%d awake %d/%d",
			rounds, om.Rounds, msgs, om.Messages, awake, om.TotalAwake)
	}
	if om.Rounds != m.Rounds || om.Messages != m.Messages || om.TotalAwake != m.TotalAwake {
		r.fail("recording phases changed the run: rounds %d/%d", om.Rounds, m.Rounds)
	}
	if !count {
		return
	}
	ep.counted++
	ep.awake += om.TotalAwake
	ep.msgs += om.Messages
	ep.lost += om.LostMessages
	for _, s := range om.Spans {
		p := ep.phases[s.Name]
		if p == nil {
			p = &[3]int64{}
			ep.phases[s.Name] = p
		}
		p[0] += s.Rounds
		p[1] += s.Messages
		p[2] += s.AwakeRounds
	}
}

func (ep *enginePairs) overheadFrac() float64 { return median(ep.ratios) - 1 }

// report adds the simnet, core and runtime metrics of the pairs run so far.
func (ep *enginePairs) report(r *result) {
	d := readCounters().sub(ep.c0)
	per := func(x int64) float64 { return float64(x) / float64(max(ep.counted, 1)) }
	r.add("simnet.awake_events", per(ep.awake), "count", "lower")
	r.add("simnet.messages", per(ep.msgs), "count", "lower")
	r.add("simnet.lost_messages", per(ep.lost), "count", "lower")
	r.add("simnet.ns_per_awake_event", median(ep.nsPerAwake), "ns", "lower")
	r.add("simnet.ns_per_message", median(ep.nsPerMsg), "ns", "lower")
	r.add("simnet.allocs_per_message", median(ep.allocsPerMsg), "count", "lower")
	for _, ph := range core.PipelinePhases() {
		var c [3]int64
		if p := ep.phases[ph.Key]; p != nil {
			c = *p
		}
		r.add("core.phase."+ph.Key+".rounds", per(c[0]), "rounds", "lower")
		r.add("core.phase."+ph.Key+".messages", per(c[1]), "count", "lower")
		r.add("core.phase."+ph.Key+".awake", per(c[2]), "rounds", "lower")
	}
	r.add("core.subproblems_max", float64(ep.subproblemsMax), "count", "lower")
	r.add("core.record_phases_overhead_frac", ep.overheadFrac(), "ratio", "lower")
	r.add("runtime.gc_cpu_frac", d.gcFrac(), "ratio", "lower")
	r.add("runtime.mallocs_per_op", median(ep.mallocs), "count", "lower")
}

// probeFlood times a plain flood — every node sends on every edge each
// round — through simnet directly, then the same flood through a proto
// mailbox and Exchange, alternating the two.
func probeFlood(r *result, g *graph.Graph, model dsssp.Model, short bool) {
	sm := simnet.Congest
	if model == dsssp.ModelSleeping {
		sm = simnet.Sleeping
	}
	rounds := max(10, 100000/(2*g.M()))
	reps := 5
	if short {
		rounds, reps = 5, 1
	}
	want := int64(rounds) * 2 * int64(g.M())
	plain := func(c *simnet.Ctx) {
		for i := 0; i < rounds; i++ {
			for k := 0; k < c.Degree(); k++ {
				c.Send(k, i&0x7f)
			}
			c.Next()
		}
	}
	mailbox := func(c *simnet.Ctx) {
		m := proto.NewMailbox(c)
		for i := 0; i < rounds; i++ {
			proto.Exchange(m, 1, func(int) (any, bool) { return i & 0x7f, true })
		}
	}
	run := func(p simnet.Program) (float64, float64) {
		c0 := readCounters()
		t0 := time.Now()
		res, err := simnet.New(g, simnet.Config{Model: sm}).Run(p)
		dt := time.Since(t0)
		d := readCounters().sub(c0)
		r.attempt()
		if err != nil {
			r.fail("flood probe: %v", err)
			return 0, 0
		}
		if res.Metrics.Messages != want {
			r.fail("flood probe sent %d messages, want %d", res.Metrics.Messages, want)
		}
		return float64(dt) / float64(want), float64(d.allocObjects) / float64(want)
	}
	var plainNS, plainAllocs, exNS, exAllocs []float64
	for i := 0; i < reps; i++ {
		ns, a := run(plain)
		plainNS, plainAllocs = append(plainNS, ns), append(plainAllocs, a)
		ns, a = run(mailbox)
		exNS, exAllocs = append(exNS, ns), append(exAllocs, a)
	}
	r.add("simnet.flood_ns_per_message", median(plainNS), "ns", "lower")
	r.add("simnet.flood_allocs_per_message", median(plainAllocs), "count", "lower")
	r.add("proto.exchange_ns_per_message", median(exNS), "ns", "lower")
	r.add("proto.overhead_ns_per_message", median(exNS)-median(plainNS), "ns", "lower")
	r.add("proto.allocs_per_message", median(exAllocs), "count", "lower")
}

// probeDecomp times decomp.Build (the sparse covers the sleeping-model BFS
// builds) on the workload's graphs under the hop metric.
func probeDecomp(r *result, graphs []*graph.Graph) {
	var times []float64
	overlap := 0
	for _, g := range graphs[:min(len(graphs), 6)] {
		t0 := time.Now()
		cv, err := decomp.Build(g, nil, nil, int64(g.N()))
		dt := time.Since(t0)
		r.attempt()
		if err != nil {
			r.fail("decomp.Build: %v", err)
			continue
		}
		times = append(times, ms(dt))
		overlap = max(overlap, cv.MaxOverlap())
	}
	r.add("decomp.build_ms", median(times), "ms", "lower")
	r.add("decomp.max_overlap", float64(overlap), "count", "lower")
}

// probeEnergyBFS times the cover-driven low-energy BFS — dsssp.BFS in the
// sleeping model, which runs energybfs over decomp's covers in simnet's
// sleeping engine — from srcs[k] on graphs[k], each checked against hop
// distances. Every graph is solved once, then the solves repeat until the
// budget is spent; the counts come from the first pass.
func probeEnergyBFS(r *result, graphs []*graph.Graph, srcs []graph.NodeID, budget time.Duration) {
	refs := make([][]int64, len(graphs))
	for k, g := range graphs {
		refs[k] = graph.BFSDist(g, srcs[k])
	}
	opts := &dsssp.Options{Model: dsssp.ModelSleeping}
	var nsPerAwake, allocsPerAwake []float64
	var maxAwake, lost int64
	start := time.Now()
	for i := 0; i < len(graphs) || time.Since(start) < budget; i++ {
		k := i % len(graphs)
		g := graphs[k]
		c0 := readCounters()
		t0 := time.Now()
		res, err := dsssp.BFS(g, map[graph.NodeID]bool{srcs[k]: true}, int64(g.N()), opts)
		dt := time.Since(t0)
		d := readCounters().sub(c0)
		r.attempt()
		if err != nil {
			r.fail("energy BFS from %d: %v", srcs[k], err)
			continue
		}
		if !slices.Equal(res.Dist, refs[k]) {
			r.fail("energy BFS from %d: hop distances differ from the reference", srcs[k])
		}
		awake := float64(max(res.Metrics.TotalAwake, 1))
		nsPerAwake = append(nsPerAwake, float64(dt)/awake)
		allocsPerAwake = append(allocsPerAwake, float64(d.allocObjects)/awake)
		if i < len(graphs) {
			maxAwake = max(maxAwake, res.Metrics.MaxAwake)
			lost += res.Metrics.LostMessages
		}
	}
	r.add("energybfs.ns_per_awake_event", median(nsPerAwake), "ns", "lower")
	r.add("energybfs.allocs_per_awake_event", median(allocsPerAwake), "count", "lower")
	r.add("energybfs.max_awake", float64(maxAwake), "rounds", "lower")
	r.add("energybfs.lost_messages", float64(lost)/float64(len(graphs)), "count", "lower")
}

// probeSched runs the APSP fan-out through sched.APSPParallel with a runner
// that records each instance's trace and its time inside the runner, then
// times sched.Compose on the collected traces.
func probeSched(r *result, g *graph.Graph, ref [][]int64) error {
	var (
		mu     sync.Mutex
		busy   time.Duration
		traces = make([]sched.Trace, g.N())
		dists  = make([][]int64, g.N())
	)
	runner := func(g *graph.Graph, s graph.NodeID) (sched.Trace, error) {
		t0 := time.Now()
		d, _, met, entries, err := core.RunCSSPTraced(g, map[graph.NodeID]int64{s: 0}, core.Options{})
		dt := time.Since(t0)
		if err != nil {
			return sched.Trace{}, err
		}
		tr := sched.Trace{Entries: entries, Rounds: met.Rounds, MaxMessageBits: met.MaxMessageBits, Spans: met.Spans}
		mu.Lock()
		defer mu.Unlock()
		busy += dt
		traces[s], dists[s] = tr, d
		return tr, nil
	}
	workers := min(nprocs(), g.N())
	t0 := time.Now()
	comp, err := sched.APSPParallel(g, nil, runner, 1, workers)
	wall := time.Since(t0)
	r.attempt()
	if err != nil {
		return err
	}
	for s := range dists {
		if !slices.Equal(dists[s], ref[s]) {
			r.fail("sched probe: row %d differs from Dijkstra", s)
			break
		}
	}
	entries := 0
	for _, tr := range traces {
		entries += len(tr.Entries)
	}
	var composeMS []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		c := sched.Compose(g.M(), traces, 1)
		composeMS = append(composeMS, ms(time.Since(t)))
		if c.MakespanRandom != comp.MakespanRandom || c.Congestion != comp.Congestion {
			return fmt.Errorf("recomposition differs: makespan %d vs %d", c.MakespanRandom, comp.MakespanRandom)
		}
	}
	r.add("sched.compose_ms", median(composeMS), "ms", "lower")
	r.add("sched.pool_busy_frac", busy.Seconds()/(float64(workers)*wall.Seconds()), "ratio", "higher")
	r.add("sched.trace_entries", float64(entries), "count", "")
	return nil
}
