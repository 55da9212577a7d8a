package service

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"

	"dsssp"
	"dsssp/internal/core"
	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// badRequest marks an error as the client's fault (HTTP 400); everything
// else surfaces as a server-side failure.
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

func badf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// notFoundErr marks an error as naming a resource that is not there
// (HTTP 404).
type notFoundErr struct{ err error }

func (e notFoundErr) Error() string { return e.err.Error() }
func (e notFoundErr) Unwrap() error { return e.err }

func notfoundf(format string, args ...any) error {
	return notFoundErr{fmt.Errorf(format, args...)}
}

// GraphSpec describes a query's input graph, one of three ways:
//
//   - inline: "n" plus "edges" ([[u,v,w], …]); duplicate pairs merge under
//     the keep-min policy and the edge list is canonicalized (sorted), so
//     any permutation of the same edge set is the same graph — and hits
//     the same cache entry;
//   - generator: "family" (one of the registered generator families) plus
//     "n", "seed", and an optional weight spec — the graph is materialized
//     server-side exactly like the bench harness does it;
//   - registered: "graph_id" names a graph registered via POST /v1/graphs;
//     the query runs against its head revision (the handle's current
//     content after any PATCHes), mutually exclusive with every other
//     field.
type GraphSpec struct {
	// ID names a registered graph (POST /v1/graphs); mutually exclusive
	// with the inline and generator fields.
	ID    string     `json:"graph_id,omitempty"`
	N     int        `json:"n,omitempty"`
	Edges [][3]int64 `json:"edges,omitempty"`
	// Family selects a generator family (path, cycle, tree, grid, random,
	// cluster, star, expander, barbell, powerlaw, bfgadget, disconnected);
	// empty means inline edges.
	Family string `json:"family,omitempty"`
	// Seed names the generator's structure stream verbatim (omitted means
	// 0, a valid seed). The weight stream is derived, not shared: every
	// other spec axis — family, n, weight kind, max_w — is folded in
	// before decorrelation (see weightSeed), so two specs differing in any
	// field draw different weights even under the same bare Seed and
	// content-addressed cache keys cannot alias.
	Seed int64 `json:"seed,omitempty"`
	// Weights picks the generator's weight distribution (unit, uniform,
	// zero-heavy); default unit. Ignored for inline edges.
	Weights *WeightSpec `json:"weights,omitempty"`
}

// WeightSpec mirrors the harness weight vocabulary: kind is "unit",
// "uniform" or "zero-heavy".
type WeightSpec struct {
	Kind string `json:"kind"`
	MaxW int64  `json:"max_w,omitempty"`
}

// QueryOptions mirrors dsssp.Options over the wire.
type QueryOptions struct {
	// Model is "congest" (default) or "sleeping".
	Model string `json:"model,omitempty"`
	// EpsNum/EpsDen set the cutter ε in (0,1); 0/0 means the default 1/2.
	EpsNum int64 `json:"eps_num,omitempty"`
	EpsDen int64 `json:"eps_den,omitempty"`
	// StrictCongest enforces the O(log n)-bit per-message budget.
	StrictCongest bool `json:"strict_congest,omitempty"`
	// MaxRounds caps the simulation (0 = a generous default).
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// RecordPhases attaches the per-phase breakdown to the response.
	RecordPhases bool `json:"record_phases,omitempty"`
	// Workers requests intra-round parallel simulation for this query,
	// clamped to the server's MaxIntraWorkers cap (0 = sequential, the
	// default). Purely an execution knob: results are byte-identical for
	// every value, so it is deliberately excluded from the cache key — a
	// sequential and a parallel request for the same computation share one
	// cache entry.
	Workers int `json:"workers,omitempty"`
}

// SSSPRequest is the POST /v1/sssp body. Source defaults to node 0.
type SSSPRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Source  int64        `json:"source"`
	Options QueryOptions `json:"options"`
}

// PathRequest is the POST /v1/path body: SSSP plus a path reconstruction
// from target back to source.
type PathRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Source  int64        `json:"source"`
	Target  int64        `json:"target"`
	Options QueryOptions `json:"options"`
}

// APSPRequest is the POST /v1/apsp body; Seed seeds the random-delay
// composition (Section 1.1).
type APSPRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Seed    int64        `json:"seed"`
	Options QueryOptions `json:"options"`
}

// MetricsJSON is the wire form of the simulator metrics (the per-edge and
// per-node vectors stay server-side; totals travel).
type MetricsJSON struct {
	Rounds          int64 `json:"rounds"`
	StrictRounds    int64 `json:"strict_rounds,omitempty"`
	Messages        int64 `json:"messages"`
	MaxEdgeMessages int64 `json:"max_edge_messages"`
	MaxMessageBits  int64 `json:"max_message_bits,omitempty"`
	MaxAwake        int64 `json:"max_awake,omitempty"`
	TotalAwake      int64 `json:"total_awake,omitempty"`
}

func metricsJSON(m simnet.Metrics) MetricsJSON {
	return MetricsJSON{
		Rounds: m.Rounds, StrictRounds: m.StrictRounds, Messages: m.Messages,
		MaxEdgeMessages: m.MaxEdgeMessages, MaxMessageBits: m.MaxMessageBits,
		MaxAwake: m.MaxAwake, TotalAwake: m.TotalAwake,
	}
}

// SSSPResponse is the POST /v1/sssp result. Dist uses the +Inf sentinel
// (1<<62) for unreachable nodes, mirrored in Unreachable. A response
// served by affected-region repair carries Incr instead of Metrics: no
// simulation ran, so there are no rounds/messages to report — the
// distances are still byte-identical to a full run's.
type SSSPResponse struct {
	N              int              `json:"n"`
	M              int              `json:"m"`
	Dist           []int64          `json:"dist"`
	Unreachable    int              `json:"unreachable"`
	SubproblemsMax int              `json:"subproblems_max,omitempty"`
	Metrics        MetricsJSON      `json:"metrics,omitzero"`
	Phases         []core.PhaseStat `json:"phases,omitempty"`
	Incr           *QueryIncrJSON   `json:"incr,omitempty"`
}

// QueryIncrJSON is the incremental-serving block of a single-source
// response that skipped the full computation.
type QueryIncrJSON struct {
	// Served is how the result was produced without a full run:
	// "repaired" (affected-region repair of a stale trace).
	Served string `json:"served"`
	// AffectedVertices / AffectedFraction size the region the repair
	// rebuilt (0 when the remembered trace was already exact).
	AffectedVertices int     `json:"affected_vertices"`
	AffectedFraction float64 `json:"affected_fraction"`
}

// PathResponse is the POST /v1/path result: the exact distance and one
// shortest path target → … → source (both endpoints inclusive). Repaired
// responses carry Incr instead of Metrics (see SSSPResponse).
type PathResponse struct {
	Dist    int64          `json:"dist"`
	Path    []int64        `json:"path"`
	Metrics MetricsJSON    `json:"metrics,omitzero"`
	Incr    *QueryIncrJSON `json:"incr,omitempty"`
}

// CompositionJSON is the wire form of the APSP scheduling composition.
type CompositionJSON struct {
	Dilation           int64 `json:"dilation"`
	Congestion         int64 `json:"congestion"`
	MakespanAligned    int64 `json:"makespan_aligned"`
	MakespanRandom     int64 `json:"makespan_random"`
	MakespanSequential int64 `json:"makespan_sequential"`
	MaxMessageBits     int64 `json:"max_message_bits,omitempty"`
}

// APSPResponse is the POST /v1/apsp result. For registered graphs served
// incrementally, Incr reports the per-source reuse split and Composition
// covers only the recomputed instances (distance rows are byte-identical
// to a from-scratch run either way; the composition of instances that were
// never re-run is unknowable without re-running them).
type APSPResponse struct {
	N           int              `json:"n"`
	M           int              `json:"m"`
	Dist        [][]int64        `json:"dist"`
	Composition CompositionJSON  `json:"composition"`
	Phases      []core.PhaseStat `json:"phases,omitempty"`
	Incr        *IncrJSON        `json:"incr,omitempty"`
}

// IncrJSON is the incremental-serving split of an APSP response: how many
// per-source instances were served from cached rows, rebuilt by
// affected-region repair, or actually re-run.
type IncrJSON struct {
	SourcesReused     int `json:"sources_reused"`
	SourcesRepaired   int `json:"sources_repaired,omitempty"`
	SourcesRecomputed int `json:"sources_recomputed"`
}

// RegisterRequest is the POST /v1/graphs body: the graph to register,
// inline or by generator spec (graph_id is, naturally, rejected here).
type RegisterRequest struct {
	Graph GraphSpec `json:"graph"`
}

// GraphListResponse is the GET /v1/graphs body.
type GraphListResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

// DeltaJSON is one edge mutation in a PATCH /v1/graphs/{id}/edges batch.
type DeltaJSON struct {
	// Op is "insert", "delete", or "reweight".
	Op string `json:"op"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
	// W is the weight for insert/reweight; ignored for delete.
	W int64 `json:"w,omitempty"`
}

// PatchRequest is the PATCH /v1/graphs/{id}/edges body: a batch of edge
// deltas applied atomically, producing one new revision.
type PatchRequest struct {
	Deltas []DeltaJSON `json:"deltas"`
}

// parseDeltas validates the wire deltas against the target graph's node
// range and maps them onto graph.EdgeDelta.
func parseDeltas(ds []DeltaJSON, n int) ([]graph.EdgeDelta, error) {
	if len(ds) == 0 {
		return nil, badf("deltas must be a non-empty array")
	}
	out := make([]graph.EdgeDelta, len(ds))
	for i, d := range ds {
		var op graph.DeltaOp
		switch d.Op {
		case "insert":
			op = graph.DeltaInsert
		case "delete":
			op = graph.DeltaDelete
		case "reweight":
			op = graph.DeltaReweight
		default:
			return nil, badf("delta %d: unknown op %q (insert, delete, reweight)", i, d.Op)
		}
		switch {
		case d.U == d.V:
			return nil, badf("delta %d: self-loop at node %d", i, d.U)
		case d.U < 0 || d.U >= int64(n) || d.V < 0 || d.V >= int64(n):
			return nil, badf("delta %d: endpoints {%d,%d} out of range [0,%d)", i, d.U, d.V, n)
		case op != graph.DeltaDelete && d.W < 0:
			return nil, badf("delta %d: negative weight %d", i, d.W)
		case op != graph.DeltaDelete && d.W > maxWeight(n):
			return nil, badf("delta %d: weight %d exceeds %d (need (n-1)·w < 2^62 at n=%d)", i, d.W, maxWeight(n), n)
		}
		out[i] = graph.EdgeDelta{Op: op, U: graph.NodeID(d.U), V: graph.NodeID(d.V), W: d.W}
	}
	return out, nil
}

// ErrorResponse is every non-2xx body: human prose in Error, a stable
// machine-readable Code (clients switch on it; the prose may change), and
// the request's correlation ID (also in the X-Dsssp-Request-Id header).
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id,omitempty"`
}

// buildGraph validates a GraphSpec and materializes the graph, bounded by
// the server's size limits. A query resolves a generator spec through the
// same parseGenerator and generator.build, but builds only on a spec-index
// miss. Inline edge lists are canonicalized (sorted,
// duplicates merged keep-min) before insertion so the simulation — not
// just the cache key — is a pure function of the edge set.
func buildGraph(spec GraphSpec, maxN, maxEdges int) (*graph.Graph, error) {
	if spec.ID != "" {
		// Handles are resolved by the caller (Server.prepare); a spec that
		// reaches materialization with one set is a caller that cannot
		// honor it.
		return nil, badf("graph.graph_id is not accepted here (inline or generator spec required)")
	}
	if spec.Family != "" {
		return buildGeneratorGraph(spec, maxN)
	}
	if spec.N < 2 || spec.N > maxN {
		return nil, badf("graph.n must be in [2,%d], got %d", maxN, spec.N)
	}
	if len(spec.Edges) == 0 {
		return nil, badf("inline graph has no edges (set graph.edges or graph.family)")
	}
	if len(spec.Edges) > maxEdges {
		return nil, badf("graph has %d edges, limit %d", len(spec.Edges), maxEdges)
	}
	edges := make([][3]int64, len(spec.Edges))
	for i, e := range spec.Edges {
		u, v, w := e[0], e[1], e[2]
		if u > v {
			u, v = v, u
		}
		switch {
		case u == v:
			return nil, badf("edge %d: self-loop at node %d", i, u)
		case u < 0 || v >= int64(spec.N):
			return nil, badf("edge %d: endpoints {%d,%d} out of range [0,%d)", i, e[0], e[1], spec.N)
		case w < 0:
			return nil, badf("edge %d: negative weight %d", i, w)
		case w > maxWeight(spec.N):
			return nil, badf("edge %d: weight %d exceeds %d (need (n-1)·w < 2^62 at n=%d)", i, w, maxWeight(spec.N), spec.N)
		}
		edges[i] = [3]int64{u, v, w}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		if edges[a][1] != edges[b][1] {
			return edges[a][1] < edges[b][1]
		}
		return edges[a][2] < edges[b][2]
	})
	// Merge duplicates keep-min here, while they are adjacent in the sorted
	// list: AddEdge would apply the same policy, but at O(degree) per
	// duplicate — a cost an untrusted inline edge list must not control.
	// The sort above puts the minimum weight first within a pair, so
	// keeping the first occurrence is keep-min.
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e[0] == dedup[len(dedup)-1][0] && e[1] == dedup[len(dedup)-1][1] {
			continue
		}
		dedup = append(dedup, e)
	}
	g := graph.New(spec.N)
	for _, e := range dedup {
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2])
	}
	g.SortAdj()
	if err := checkWeightDomain(g); err != nil {
		return nil, err
	}
	return g, nil
}

// buildGeneratorGraph validates a generator spec and builds its graph.
func buildGeneratorGraph(spec GraphSpec, maxN int) (*graph.Graph, error) {
	gen, err := parseGenerator(spec, maxN)
	if err != nil {
		return nil, err
	}
	return gen.build()
}

// generator is a generator spec that passed parseGenerator's checks but
// whose graph is not built yet: resolving a query on a spec-index hit
// needs only its key, and the graph is built on demand.
type generator struct{ spec GraphSpec }

// parseGenerator runs a generator spec's cheap checks: everything but the
// weight domain, which depends on the weights drawn and is judged by build.
func parseGenerator(spec GraphSpec, maxN int) (generator, error) {
	if len(spec.Edges) > 0 {
		return generator{}, badf("graph.family and graph.edges are mutually exclusive")
	}
	if !slices.Contains(graph.Families(), graph.Family(spec.Family)) {
		return generator{}, badf("unknown graph family %q (families: %v)", spec.Family, graph.Families())
	}
	if spec.N < 4 || spec.N > maxN {
		return generator{}, badf("generator graphs need n in [4,%d], got %d", maxN, spec.N)
	}
	if ws := spec.Weights; ws != nil {
		if ws.MaxW > maxWeight(spec.N) {
			return generator{}, badf("max_w %d exceeds %d (need (n-1)·max_w < 2^62 at n=%d)", ws.MaxW, maxWeight(spec.N), spec.N)
		}
		switch ws.Kind {
		case "", "unit":
		case "uniform", "zero-heavy":
			if ws.MaxW < 1 {
				return generator{}, badf("%s weights need max_w >= 1", ws.Kind)
			}
		default:
			return generator{}, badf("unknown weight kind %q (unit, uniform, zero-heavy)", ws.Kind)
		}
	}
	return generator{spec}, nil
}

// build materializes the spec's graph and rejects it if it falls outside
// the weight domain. Every call builds the same graph: the seeded WeightFn
// carries a live RNG, so each build draws from a fresh one.
func (gen generator) build() (*graph.Graph, error) {
	spec := gen.spec
	w := graph.UnitWeights
	if ws := spec.Weights; ws != nil {
		switch ws.Kind {
		case "uniform":
			w = graph.UniformWeights(ws.MaxW, weightSeed(spec))
		case "zero-heavy":
			w = graph.ZeroHeavyWeights(ws.MaxW, weightSeed(spec))
		}
	}
	g := graph.Make(graph.Family(spec.Family), spec.N, w, spec.Seed)
	if err := checkWeightDomain(g); err != nil {
		return nil, err
	}
	return g, nil
}

// indexKey is the spec's key in the server's spec index: the fields that,
// under the weightSeed contract, name exactly one graph.
func (gen generator) indexKey() string {
	spec := gen.spec
	var kind string
	var maxW int64
	if ws := spec.Weights; ws != nil {
		kind, maxW = ws.Kind, ws.MaxW
	}
	var buf [96]byte
	b := append(buf[:0], spec.Family...)
	b = strconv.AppendInt(append(b, '|'), int64(spec.N), 10)
	b = strconv.AppendInt(append(b, '|'), spec.Seed, 10)
	b = append(append(b, '|'), kind...)
	b = strconv.AppendInt(append(b, '|'), maxW, 10)
	return string(b)
}

// checkWeightDomain rejects, as the client's error, a graph the engine
// would refuse (core.InWeightDomain); queries start every source at offset
// 0.
func checkWeightDomain(g *graph.Graph) error {
	var maxW int64
	zero := false
	for u := range g.N() {
		for _, h := range g.Adj(graph.NodeID(u)) {
			maxW = max(maxW, h.W)
			zero = zero || h.W == 0
		}
	}
	if core.InWeightDomain(g.N(), maxW, 0, zero) {
		return nil
	}
	return badf("graph weights out of domain: need n·maxW·scale + 1 < 2^61, scale = n+1 when a weight is 0 (n=%d, max weight %d, zero weight %v)", g.N(), maxW, zero)
}

// maxWeight is the largest edge weight an n-node graph accepts at the
// service's ingress, checked per weight: a shortest path has at most n-1
// edges, so (n-1)·w < graph.Inf keeps every finite distance below the +Inf
// sentinel (2^62). It is a necessary bound only. The exact domain
// (checkWeightDomain) is judged on whole graphs: inline ones when parsed,
// generator ones when built; a PATCHed revision outside it is rejected by
// the engine with a ComputeError at query time.
func maxWeight(n int) int64 { return (graph.Inf - 1) / int64(max(n-1, 1)) }

// weightSeed derives a generator spec's weight-stream seed. The spec-seed
// contract: spec.Seed names the structure stream verbatim (graph.Make
// consumes it as-is), while the weight stream folds every other spec axis —
// family, n, weight kind, max_w — into the seed before an LCG decorrelation
// step. The fold is what keeps distinct specs distinct: a bare LCG of
// spec.Seed alone made every family sharing a seed (notably the omitted-
// seed default 0) draw the same weight stream. A spec therefore names
// exactly one reproducible graph in the service's namespace. (Harness
// scenarios additionally fold the scenario *name* into their seeds, so a
// spec does not reproduce a named scenario's graph — replay those with
// dsssp-bench -scenarios instead.)
//
// The derivation is part of the wire contract and pinned by
// TestWeightSeedContract: changing it silently repoints every cached
// generator-spec result.
func weightSeed(spec GraphSpec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", spec.Family, spec.N)
	if spec.Weights != nil {
		fmt.Fprintf(h, "%s|%d", spec.Weights.Kind, spec.Weights.MaxW)
	}
	x := spec.Seed ^ int64(h.Sum64())
	return x*6364136223846793005 + 1442695040888963407
}

// resolveOptions maps wire options onto dsssp.Options. The engine always
// records phases server-side — the span ledger does not change the
// schedule (pinned since PR 4), and every computed query feeds the
// per-phase round histograms in /metrics; the wire RecordPhases flag only
// controls whether the breakdown travels in the response (and, because it
// changes the bytes, the cache key). The wire Workers knob maps onto
// IntraWorkers clamped to the server's cap; it cannot affect response
// bytes, so it stays out of the cache key (asserted by the hash tests).
func resolveOptions(o QueryOptions, workers, intraCap int) (*dsssp.Options, error) {
	if o.Workers < 0 {
		return nil, badf("workers must be >= 0, got %d", o.Workers)
	}
	intra := o.Workers
	if intra > intraCap {
		intra = intraCap
	}
	opts := &dsssp.Options{
		EpsNum: o.EpsNum, EpsDen: o.EpsDen,
		MaxRounds:     o.MaxRounds,
		StrictCongest: o.StrictCongest,
		RecordPhases:  true,
		Workers:       workers,
		IntraWorkers:  intra,
	}
	switch o.Model {
	case "", "congest":
		opts.Model = dsssp.ModelCongest
	case "sleeping":
		opts.Model = dsssp.ModelSleeping
	default:
		return nil, badf("unknown model %q (congest, sleeping)", o.Model)
	}
	if o.EpsNum != 0 || o.EpsDen != 0 {
		if o.EpsNum <= 0 || o.EpsDen <= 0 || o.EpsNum >= o.EpsDen {
			return nil, badf("ε must be in (0,1), got %d/%d", o.EpsNum, o.EpsDen)
		}
	}
	if o.MaxRounds < 0 {
		return nil, badf("max_rounds must be >= 0, got %d", o.MaxRounds)
	}
	return opts, nil
}

func countUnreachable(dist []int64) int {
	n := 0
	for _, d := range dist {
		if d == graph.Inf {
			n++
		}
	}
	return n
}
