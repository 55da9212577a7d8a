package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/service"
)

// serve-static: generator-spec queries from a working set warmed into the
// cache, plus a fixed share of small specs never seen before.
func runServeStatic(o runOpts, r *result) error {
	return runServe(serveSpec{
		rate:     400,
		limitMS:  10,
		capRate:  12800,
		classes:  []string{classHit, classComputed},
		newState: newStaticState,
	}, o, r)
}

const (
	// staticMissEvery puts one never-seen spec among this many reads
	// (every 25th in short mode, so short runs see misses too).
	staticMissEvery = 250
	// staticMissN is the size of the never-seen specs: small enough that
	// the misses use well under one core at the fixed rate.
	staticMissN = 12
)

var staticFamilies = []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyCluster, graph.FamilyExpander, graph.FamilyPowerLaw}

// staticQuery is one working-set request; expect holds the checked body
// every later hit must repeat byte for byte.
type staticQuery struct {
	endpoint string
	body     []byte
	check    func(body []byte) error
	expect   []byte
}

// staticMiss is a never-seen spec's response, checked after the load.
type staticMiss struct {
	spec service.GraphSpec
	body []byte
}

type staticState struct {
	seed      int64
	missEvery int
	specs     []service.GraphSpec
	graphs    []*graph.Graph
	queries   []*staticQuery

	missNext atomic.Int64
	mu       sync.Mutex
	misses   []staticMiss
}

func uniform(family graph.Family, n int, seed int64) service.GraphSpec {
	return service.GraphSpec{Family: string(family), N: n, Seed: seed, Weights: &service.WeightSpec{Kind: "uniform", MaxW: int64(n)}}
}

func newStaticState(o runOpts) (serveState, error) {
	st := &staticState{seed: o.seed, missEvery: staticMissEvery}
	rng := rand.New(rand.NewSource(o.seed))
	specs, perSpec := 10, 2
	if o.short {
		specs, perSpec, st.missEvery = 2, 1, staticMissEvery/10
	}
	add := func(endpoint string, req any, check func([]byte) error) error {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		st.queries = append(st.queries, &staticQuery{endpoint: endpoint, body: b, check: check})
		return nil
	}
	for k := 0; k < specs; k++ {
		spec := uniform(staticFamilies[k%len(staticFamilies)], 16+4*(k%3), subSeed(o.seed, k))
		g := specGraph(spec)
		st.specs = append(st.specs, spec)
		st.graphs = append(st.graphs, g)
		for q := 0; q < perSpec; q++ {
			src := graph.NodeID(rng.Intn(g.N()))
			dst := graph.NodeID(rng.Intn(g.N()))
			ref := graph.Dijkstra(g, src)
			if err := add("/v1/sssp", service.SSSPRequest{Graph: spec, Source: int64(src)}, func(b []byte) error {
				_, err := checkSSSP(b, ref)
				return err
			}); err != nil {
				return nil, err
			}
			if err := add("/v1/path", service.PathRequest{Graph: spec, Source: int64(src), Target: int64(dst)}, func(b []byte) error {
				_, err := checkPath(b, g, src, dst, ref)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	for k := 0; k < 2; k++ {
		spec := uniform(graph.FamilyRandom, 10, subSeed(o.seed, 100+k))
		g := specGraph(spec)
		if err := add("/v1/apsp", service.APSPRequest{Graph: spec, Seed: 1}, func(b []byte) error {
			var resp service.APSPResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			if len(resp.Dist) != g.N() {
				return fmt.Errorf("apsp: %d rows, want %d", len(resp.Dist), g.N())
			}
			for s, row := range resp.Dist {
				if !slices.Equal(row, graph.Dijkstra(g, graph.NodeID(s))) {
					return fmt.Errorf("apsp row %d differs from Dijkstra", s)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// attach warms every working-set query from nproc goroutines and checks
// the computed answers; their bodies are what the hits must repeat.
func (st *staticState) attach(s *server, r *result) error {
	return forEachParallel(len(st.queries), func(i int) error {
		q := st.queries[i]
		rep, err := s.do(http.MethodPost, q.endpoint, q.body)
		r.attempt()
		if err == nil {
			err = q.check(rep.body)
		}
		if err != nil {
			r.fail("warm-up %s: %v", q.endpoint, err)
			return err
		}
		q.expect = rep.body
		return nil
	})
}

func (st *staticState) missSpec(k int) service.GraphSpec {
	return uniform(graph.FamilyRandom, staticMissN, subSeed(st.seed, 1_000_000+k))
}

func (st *staticState) op(s *server, r *result, i int) string {
	r.attempt()
	if i%st.missEvery == st.missEvery-1 {
		spec := st.missSpec(int(st.missNext.Add(1) - 1))
		rep, err := s.postJSON("/v1/sssp", service.SSSPRequest{Graph: spec})
		if err != nil {
			r.fail("miss: %v", err)
			return classFailed
		}
		if rep.cache != "miss" {
			r.fail("never-seen spec seed %d served as %q", spec.Seed, rep.cache)
		}
		st.mu.Lock()
		st.misses = append(st.misses, staticMiss{spec, rep.body})
		st.mu.Unlock()
		return classify(rep)
	}
	q := st.queries[pick(st.seed, i, 1, len(st.queries))]
	rep, err := s.do(http.MethodPost, q.endpoint, q.body)
	if err != nil {
		r.fail("%s: %v", q.endpoint, err)
		return classFailed
	}
	if !bytes.Equal(rep.body, q.expect) {
		r.fail("%s: body differs from the checked answer", q.endpoint)
	}
	return classify(rep)
}

// check verifies every never-seen spec's answer on the benchmark's own
// rebuild of the spec, including that its rounds equal a library run's.
func (st *staticState) check(r *result) {
	st.mu.Lock()
	misses := st.misses
	st.misses = nil
	st.mu.Unlock()
	for _, m := range misses {
		g := specGraph(m.spec)
		resp, err := checkSSSP(m.body, graph.Dijkstra(g, 0))
		if err != nil {
			r.fail("miss seed %d: %v", m.spec.Seed, err)
			continue
		}
		res, err := dsssp.SSSP(g, 0, nil)
		if err != nil {
			r.fail("miss seed %d: library run: %v", m.spec.Seed, err)
			continue
		}
		if resp.Metrics.Rounds != res.Metrics.Rounds {
			r.fail("miss seed %d: served rounds %d, library %d", m.spec.Seed, resp.Metrics.Rounds, res.Metrics.Rounds)
		}
	}
}

func (st *staticState) finish(*server, *result) {}

func (st *staticState) stats(service.StatsResponse, *result) {}

func (st *staticState) period() int { return st.missEvery }

// layers probes the layers under serve-static: graph.Make on the working
// set's specs, the engine, simnet and proto on the never-seen specs'
// graphs (the solves the misses run), and decomp and the sleeping-model
// BFS on the working set's graphs, which serving itself does not run.
func (st *staticState) layers(o runOpts, r *result) {
	var makeMS []float64
	for rep := 0; rep < 5; rep++ {
		for _, spec := range st.specs {
			t0 := time.Now()
			specGraph(spec)
			makeMS = append(makeMS, ms(time.Since(t0)))
		}
	}
	r.add("graph.make_ms", median(makeMS), "ms", "lower")

	var graphs []*graph.Graph
	var refs [][]int64
	for k := 0; k < 4; k++ {
		g := specGraph(st.missSpec(k))
		graphs = append(graphs, g)
		refs = append(refs, graph.Dijkstra(g, 0))
	}
	ep := newEnginePairs(dsssp.ModelCongest)
	budget := time.Duration(o.seconds * 0.15 * float64(time.Second))
	start := time.Now()
	for i := 0; i < len(graphs) || time.Since(start) < budget; i++ {
		k := i % len(graphs)
		ep.pair(r, graphs[k], 0, refs[k], i%2 == 1, i < len(graphs))
	}
	ep.report(r)
	probeFlood(r, graphs[0], dsssp.ModelCongest, o.short)
	probeDecomp(r, st.graphs)
	probeEnergyBFS(r, st.graphs, make([]graph.NodeID, len(st.graphs)), budget/3)
}
