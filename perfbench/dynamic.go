package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/incr"
	"dsssp/internal/service"
)

// serve-dynamic: reads of one registered graph by handle, interleaved at a
// fixed ratio with single-edge PATCH writes.
func runServeDynamic(o runOpts, r *result) error {
	return runServe(serveSpec{
		rate:     100,
		limitMS:  50,
		capRate:  6400,
		classes:  []string{classHit, classRepaired, classComputed, classPatch},
		newState: newDynamicState,
	}, o, r)
}

const (
	// dynamicPatchEvery makes every this-many-th operation a PATCH (every
	// fifth in short mode): one write per 50 queries, the cadence of the
	// repository's own dynamic load (dsssp-serve -load-patch-every).
	dynamicPatchEvery = 50
	// dynamicRoundsChecks bounds how many served computed reads at a
	// patched revision have their rounds re-derived by a library run after
	// the load (each costs a full solve).
	dynamicRoundsChecks = 2
)

// computedRead names a read the server computed: a /v1/path read runs
// dsssp.SSSPTree, whose rounds include the tree-extraction round, and a
// /v1/sssp read runs dsssp.SSSP.
type computedRead struct {
	rev  int
	src  graph.NodeID
	path bool
}

// dynamicRead is one read as the load recorded it; it is checked after the
// phase so that the timed operation is only the request.
type dynamicRead struct {
	endpoint string
	src, dst graph.NodeID
	rep      reply
}

type dynamicState struct {
	seed       int64
	patchEvery int
	n          int
	maxW       int64
	makeG      func() *graph.Graph
	sources    []graph.NodeID
	id         string

	// patchMu orders the PATCH stream: a writer holds it across its
	// request so the server applies deltas[j] exactly as revision j+2.
	patchMu     sync.Mutex
	rng         *rand.Rand
	deltas      []graph.EdgeDelta
	migrated    int
	invalidated int

	revMu sync.RWMutex
	revs  []*graph.Graph // revs[k] is revision k+1

	readMu sync.Mutex
	reads  []dynamicRead // recorded since the last check

	// The checks alone use these, between phases, from one goroutine.
	refs     map[[2]int][]int64     // (revision, source) → Dijkstra
	computed map[computedRead]int64 // served rounds
}

func newDynamicState(o runOpts) (serveState, error) {
	n, sources, patchEvery := 128, 16, dynamicPatchEvery
	if o.short {
		n, sources, patchEvery = 24, 4, dynamicPatchEvery/10
	}
	gs, ws := subSeed(o.seed, 0), subSeed(o.seed, 1)
	st := &dynamicState{
		seed:       o.seed,
		patchEvery: patchEvery,
		n:          n,
		maxW:       int64(n),
		makeG:      func() *graph.Graph { return graph.Make(graph.FamilyRandom, n, graph.UniformWeights(int64(n), ws), gs) },
		rng:        rand.New(rand.NewSource(subSeed(o.seed, 2))),
		refs:       map[[2]int][]int64{},
		computed:   map[computedRead]int64{},
	}
	// The server stores every revision in canonical form (sorted edge
	// list, sorted adjacency); the rebuild gives the benchmark's copy the
	// same form, so library runs on it reproduce the served rounds.
	g0, err := graph.ApplyDeltas(st.makeG(), nil)
	if err != nil {
		return nil, err
	}
	st.revs = []*graph.Graph{g0}
	for _, v := range rand.New(rand.NewSource(o.seed)).Perm(n)[:sources] {
		st.sources = append(st.sources, graph.NodeID(v))
	}
	return st, nil
}

// ref returns the revision's graph and the source's reference distances.
// Only the checks call it, from one goroutine.
func (st *dynamicState) ref(rev int, src graph.NodeID) (*graph.Graph, []int64, error) {
	st.revMu.RLock()
	defer st.revMu.RUnlock()
	if rev < 1 || rev > len(st.revs) {
		return nil, nil, fmt.Errorf("served revision %d, the benchmark knows %d", rev, len(st.revs))
	}
	g := st.revs[rev-1]
	k := [2]int{rev, int(src)}
	d, ok := st.refs[k]
	if !ok {
		d = graph.Dijkstra(g, src)
		st.refs[k] = d
	}
	return g, d, nil
}

// attach registers the graph by its edge list and warms every source.
func (st *dynamicState) attach(s *server, r *result) error {
	g := st.revs[0]
	spec := service.GraphSpec{N: g.N()}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int64{int64(e.U), int64(e.V), e.W})
	}
	rep, err := s.postJSON("/v1/graphs", service.RegisterRequest{Graph: spec})
	if err != nil {
		return err
	}
	var info service.GraphInfo
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return err
	}
	st.id = info.ID
	err = forEachParallel(len(st.sources), func(i int) error {
		if st.read(s, r, "/v1/sssp", st.sources[i], 0) == classFailed {
			return fmt.Errorf("warming source %d failed", st.sources[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	f := r.failed.Load()
	st.check(r)
	if r.failed.Load() > f {
		return fmt.Errorf("warm-up answers differ from Dijkstra")
	}
	return nil
}

// read issues one read by handle and records the reply for check; the
// class comes from the headers alone.
func (st *dynamicState) read(s *server, r *result, endpoint string, src, dst graph.NodeID) string {
	r.attempt()
	req := any(service.SSSPRequest{Graph: service.GraphSpec{ID: st.id}, Source: int64(src)})
	if endpoint == "/v1/path" {
		req = service.PathRequest{Graph: service.GraphSpec{ID: st.id}, Source: int64(src), Target: int64(dst)}
	}
	rep, err := s.postJSON(endpoint, req)
	if err != nil {
		r.fail("%s from %d: %v", endpoint, src, err)
		return classFailed
	}
	st.readMu.Lock()
	st.reads = append(st.reads, dynamicRead{endpoint, src, dst, rep})
	st.readMu.Unlock()
	return classify(rep)
}

// check verifies the reads recorded since the last call against Dijkstra
// on the benchmark's copy of the revision each was answered at, and
// remembers the served rounds of computed reads.
func (st *dynamicState) check(r *result) {
	st.readMu.Lock()
	reads := st.reads
	st.reads = nil
	st.readMu.Unlock()
	for _, rd := range reads {
		rounds, err := st.checkRead(rd)
		if err != nil {
			r.fail("%s from %d at revision %d: %v", rd.endpoint, rd.src, rd.rep.revision, err)
			continue
		}
		if classify(rd.rep) == classComputed {
			st.computed[computedRead{rd.rep.revision, rd.src, rd.endpoint == "/v1/path"}] = rounds
		}
	}
}

func (st *dynamicState) checkRead(rd dynamicRead) (int64, error) {
	g, ref, err := st.ref(rd.rep.revision, rd.src)
	if err != nil {
		return 0, err
	}
	if rd.endpoint == "/v1/path" {
		resp, err := checkPath(rd.rep.body, g, rd.src, rd.dst, ref)
		return resp.Metrics.Rounds, err
	}
	resp, err := checkSSSP(rd.rep.body, ref)
	return resp.Metrics.Rounds, err
}

func (st *dynamicState) op(s *server, r *result, i int) string {
	if i%st.patchEvery == st.patchEvery-1 {
		return st.patch(s, r)
	}
	src := st.sources[pick(st.seed, i, 2, len(st.sources))]
	endpoint := "/v1/sssp"
	var dst graph.NodeID
	if pick(st.seed, i, 3, 10) < 4 {
		endpoint = "/v1/path"
		dst = graph.NodeID(pick(st.seed, i, 4, st.n))
	}
	return st.read(s, r, endpoint, src, dst)
}

// nextDelta draws one single-edge change valid on g: a reweight up or
// down, an insert of a missing edge, or a delete, with equal odds.
func (st *dynamicState) nextDelta(g *graph.Graph) graph.EdgeDelta {
	edges := g.Edges()
	e := edges[st.rng.Intn(len(edges))]
	switch st.rng.Intn(4) {
	case 0:
		return graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1 + st.rng.Int63n(st.maxW)}
	case 1:
		if e.W > 1 {
			return graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: 1 + st.rng.Int63n(e.W-1)}
		}
		return graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1}
	case 2:
		for {
			u, v := graph.NodeID(st.rng.Intn(st.n)), graph.NodeID(st.rng.Intn(st.n))
			if u != v && !g.HasEdge(u, v) {
				return graph.EdgeDelta{Op: graph.DeltaInsert, U: u, V: v, W: 1 + st.rng.Int63n(st.maxW)}
			}
		}
	default:
		return graph.EdgeDelta{Op: graph.DeltaDelete, U: e.U, V: e.V}
	}
}

// patch sends the next delta of the stream and advances the benchmark's
// own copy of the graph with graph.ApplyDeltas.
func (st *dynamicState) patch(s *server, r *result) string {
	r.attempt()
	st.patchMu.Lock()
	defer st.patchMu.Unlock()
	st.revMu.RLock()
	head := st.revs[len(st.revs)-1]
	rev := len(st.revs)
	st.revMu.RUnlock()
	d := st.nextDelta(head)
	next, err := graph.ApplyDeltas(head, []graph.EdgeDelta{d})
	if err != nil {
		r.fail("patch stream: %v", err)
		return classFailed
	}
	body := service.PatchRequest{Deltas: []service.DeltaJSON{{Op: d.Op.String(), U: int64(d.U), V: int64(d.V), W: d.W}}}
	b, err := json.Marshal(body)
	if err != nil {
		r.fail("patch: %v", err)
		return classFailed
	}
	// The new revision is known before the server applies it: a read may
	// be answered at it before this PATCH's reply arrives.
	st.revMu.Lock()
	st.revs = append(st.revs, next)
	st.revMu.Unlock()
	rep, err := s.do(http.MethodPatch, "/v1/graphs/"+st.id+"/edges", b)
	var info service.PatchInfo
	if err == nil {
		err = json.Unmarshal(rep.body, &info)
	}
	if err == nil && (info.Revision != rev+1 || info.M != next.M()) {
		err = fmt.Errorf("revision %d with %d edges, want %d with %d", info.Revision, info.M, rev+1, next.M())
	}
	if err != nil {
		r.fail("patch %v: %v", d, err)
		return classFailed
	}
	st.deltas = append(st.deltas, d)
	st.migrated += info.EntriesMigrated
	st.invalidated += info.EntriesInvalidated
	return classPatch
}

// finish re-derives served rounds with library runs on the benchmark's
// copy of a patched revision: for the computed reads at the highest
// revisions past the first, and for one read of a never-warmed source at
// the head revision, which the server must compute.
func (st *dynamicState) finish(s *server, r *result) {
	st.check(r)
	fresh := graph.NodeID(0)
	for slices.Contains(st.sources, fresh) {
		fresh++
	}
	if c := st.read(s, r, "/v1/sssp", fresh, 0); c != classComputed && c != classFailed {
		r.fail("never-warmed source %d served as %s", fresh, c)
	}
	st.check(r)
	keys := make([]computedRead, 0, len(st.computed))
	for k := range st.computed {
		if k.rev > 1 && k.src != fresh {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b computedRead) int {
		if a.rev != b.rev {
			return b.rev - a.rev
		}
		return int(a.src - b.src)
	})
	keys = keys[:min(len(keys), dynamicRoundsChecks)]
	st.revMu.RLock()
	head := len(st.revs)
	st.revMu.RUnlock()
	k := computedRead{head, fresh, false}
	if _, ok := st.computed[k]; ok {
		keys = append(keys, k)
	} else {
		r.attempt()
		r.fail("never-warmed source %d: no computed read at head revision %d", fresh, head)
	}
	r.add("rounds_checks", float64(len(keys)), "count", "")
	r.add("rounds_checks.min_revision", float64(slices.MinFunc(keys, func(a, b computedRead) int { return a.rev - b.rev }).rev), "count", "")
	for _, k := range keys {
		st.revMu.RLock()
		g := st.revs[k.rev-1]
		st.revMu.RUnlock()
		r.attempt()
		var rounds int64
		var err error
		if k.path {
			var res *dsssp.TreeResult
			if res, err = dsssp.SSSPTree(g, k.src, nil); err == nil {
				rounds = res.Metrics.Rounds
			}
		} else {
			var res *dsssp.Result
			if res, err = dsssp.SSSP(g, k.src, nil); err == nil {
				rounds = res.Metrics.Rounds
			}
		}
		if err != nil {
			r.fail("library run at revision %d: %v", k.rev, err)
			continue
		}
		if got := st.computed[k]; got != rounds {
			r.fail("revision %d source %d (path %v): served rounds %d, library %d", k.rev, k.src, k.path, got, rounds)
		}
	}
}

func (st *dynamicState) period() int { return st.patchEvery }

func (st *dynamicState) stats(ss service.StatsResponse, r *result) {
	st.patchMu.Lock()
	defer st.patchMu.Unlock()
	p := float64(max(len(st.deltas), 1))
	r.add("service.migrated_per_patch", float64(st.migrated)/p, "count", "")
	r.add("service.invalidated_per_patch", float64(st.invalidated)/p, "count", "")
	r.add("service.sources_repaired", float64(ss.Incr.SourcesRepaired), "count", "")
	r.add("service.sources_recomputed", float64(ss.Incr.SourcesRecomputed), "count", "")
	r.add("service.repair_fallbacks", float64(ss.Incr.RepairFallbacks), "count", "")
}

// layers probes the layers under serve-dynamic: graph.Make for the
// registered graph, graph.ApplyDeltas and the incr kernels on a replay of
// the run's own patch stream, and the engine, simnet, proto, decomp and
// the sleeping-model BFS on the registered graph.
func (st *dynamicState) layers(o runOpts, r *result) {
	var makeMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st.makeG()
		makeMS = append(makeMS, ms(time.Since(t0)))
	}
	r.add("graph.make_ms", median(makeMS), "ms", "lower")
	st.replayIncr(r)

	g := st.revs[0]
	ep := newEnginePairs(dsssp.ModelCongest)
	budget := time.Duration(o.seconds * 0.15 * float64(time.Second))
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		src := st.sources[i%len(st.sources)]
		_, ref, _ := st.ref(1, src)
		ep.pair(r, g, src, ref, i%2 == 1, i < 2)
	}
	ep.report(r)
	probeFlood(r, g, dsssp.ModelCongest, o.short)
	probeDecomp(r, []*graph.Graph{g})
	gs := make([]*graph.Graph, len(st.sources))
	for i := range gs {
		gs[i] = g
	}
	probeEnergyBFS(r, gs, st.sources, budget/3)
}

// replayIncr replays the patch stream against traces the benchmark keeps
// for the warmed sources: classification (incr.Effects + DirtySources) per
// patch, then incr.Repair per dirty source, checked against Dijkstra.
func (st *dynamicState) replayIncr(r *result) {
	traces := map[graph.NodeID]incr.Trace{}
	dists := map[graph.NodeID][]int64{}
	for _, src := range st.sources {
		d := graph.Dijkstra(st.revs[0], src)
		traces[src] = incr.Trace{Dist: d, Parent: graph.WitnessParents(st.revs[0], src, d)}
		dists[src] = d
	}
	var applyUS, classifyUS, repairUS, affected []float64
	bails, repairs := 0, 0
	for j, d := range st.deltas {
		cur := st.revs[j]
		t0 := time.Now()
		next, err := graph.ApplyDeltas(cur, []graph.EdgeDelta{d})
		applyUS = append(applyUS, float64(time.Since(t0))/1e3)
		r.attempt()
		if err != nil {
			r.fail("replay ApplyDeltas: %v", err)
			return
		}
		t1 := time.Now()
		eff, err := incr.Effects(cur, []graph.EdgeDelta{d})
		var dirty []graph.NodeID
		if err == nil {
			dirty, _ = incr.DirtySources(eff, dists)
		}
		classifyUS = append(classifyUS, float64(time.Since(t1))/1e3)
		if err != nil {
			r.fail("replay Effects: %v", err)
			return
		}
		u, v := min(d.U, d.V), max(d.U, d.V)
		change := []incr.NetChange{{U: u, V: v, OldW: incr.BaseWeight(cur, u, v), NewW: incr.BaseWeight(next, u, v)}}
		for _, src := range dirty {
			want := graph.Dijkstra(next, src)
			t2 := time.Now()
			rr, ok := incr.Repair(next, src, traces[src], change, st.n/2)
			dt := time.Since(t2)
			repairs++
			r.attempt()
			if !ok {
				bails++
				traces[src] = incr.Trace{Dist: want, Parent: graph.WitnessParents(next, src, want)}
			} else {
				repairUS = append(repairUS, float64(dt)/1e3)
				affected = append(affected, float64(rr.Affected)/float64(st.n))
				if !slices.Equal(rr.Dist, want) {
					r.fail("replay: repair of source %d after %v differs from Dijkstra", src, d)
				}
				traces[src] = incr.Trace{Dist: rr.Dist, Parent: rr.Parent}
			}
			dists[src] = traces[src].Dist
		}
	}
	r.add("graph.apply_deltas_us", median(applyUS), "us", "lower")
	r.add("incr.classify_us", median(classifyUS), "us", "lower")
	r.add("incr.repair_us.p50", median(repairUS), "us", "lower")
	r.add("incr.affected_frac.p50", median(affected), "ratio", "")
	r.add("incr.bail_rate", float64(bails)/float64(max(repairs, 1)), "ratio", "lower")
	r.add("incr.patches_replayed", float64(len(st.deltas)), "count", "")
}
