// Package dsssp is a reproduction of "A Near-Optimal Low-Energy
// Deterministic Distributed SSSP with Ramifications on Congestion and APSP"
// (Ghaffari & Trygub, PODC 2024): deterministic distributed shortest-path
// algorithms on a simulated synchronous message-passing network, in two
// models:
//
//   - ModelCongest — the classic CONGEST model; the CSSP/SSSP algorithms
//     run in Õ(n) rounds with poly(log n) messages per edge
//     (Theorems 2.6/2.7), which lets n instances be scheduled concurrently
//     for APSP in Õ(n) rounds (Section 1.1).
//   - ModelSleeping — the sleeping (energy) model; nodes sleep almost
//     always and each spends only polylogarithmically many awake rounds
//     (Theorems 1.1/3.8/3.15).
//
// Quick start:
//
//	g := dsssp.NewGraph(4)
//	g.AddEdge(0, 1, 2)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 5)
//	res, err := dsssp.SSSP(g, 0, nil)
//	// res.Dist == [0 2 3 8], res.Metrics.MaxEdgeMessages is polylog.
//
// The packages under internal/ hold the building blocks: the round/energy
// simulator (simnet), graph substrate (graph), tree coordination (proto),
// Boruvka spanning forests (forest), the approximate cutter (bfs), sparse
// covers (decomp), the sleeping-model BFS (energybfs), the core recursion
// (core), classic baselines (baseline), and the APSP scheduling composition
// (sched).
package dsssp

import (
	"fmt"
	"runtime"

	"dsssp/internal/baseline"
	"dsssp/internal/core"
	"dsssp/internal/energybfs"
	"dsssp/internal/graph"
	"dsssp/internal/sched"
	"dsssp/internal/simnet"
)

// Model selects the execution model.
type Model int

// Available models.
const (
	// ModelCongest is the synchronous CONGEST model (Section 2).
	ModelCongest Model = iota + 1
	// ModelSleeping is the sleeping/energy model (Section 3).
	ModelSleeping
)

func (m Model) String() string {
	switch m {
	case ModelCongest:
		return "congest"
	case ModelSleeping:
		return "sleeping"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Inf marks an unreachable node (or one beyond a threshold).
const Inf = graph.Inf

// NodeID identifies a node (0..n-1).
type NodeID = graph.NodeID

// Graph re-exports the weighted undirected graph type.
type Graph = graph.Graph

// NewGraph returns an empty graph with n nodes. Graphs are simple:
// re-adding an existing edge {u,v} keeps the minimum of the weights and
// returns the existing edge ID instead of growing the graph (see
// Graph.AddEdge), so a graph is a pure function of its edge set — the
// property the serving layer's content-addressed result cache keys on.
func NewGraph(n int) *Graph { return graph.New(n) }

// EdgeDelta is one edge mutation (insert / delete / reweight) in a batched
// graph update; see ApplyDeltas.
type EdgeDelta = graph.EdgeDelta

// Edge-delta operations, re-exported for ApplyDeltas batches.
const (
	DeltaInsert   = graph.DeltaInsert
	DeltaDelete   = graph.DeltaDelete
	DeltaReweight = graph.DeltaReweight
)

// ApplyDeltas returns a new graph equal to g with the edge deltas applied
// in order, leaving g untouched. Inserting an existing pair merges under
// the same keep-min policy as AddEdge and the result is rebuilt in
// canonical edge order, so a patched graph remains a pure function of its
// edge set — the invariant the serving layer's dynamic-graph revisions and
// content-addressed cache rely on.
func ApplyDeltas(g *Graph, deltas []EdgeDelta) (*Graph, error) {
	return graph.ApplyDeltas(g, deltas)
}

// WitnessParents extracts the canonical min-ID shortest-path tree implied
// by an exact distance vector: parent[v] is the lowest-numbered neighbor u
// with dist[u] + w(u,v) == dist[v] (-1 at the source and at unreachable
// nodes). It is a pure function of (g, dist) and matches SSSPTree's Parent
// byte-for-byte, which is what lets the serving layer rebuild a remembered
// tree after a patch (affected-region repair) without re-running the
// engine. dist must be exact for source; inexact vectors panic.
func WitnessParents(g *Graph, source NodeID, dist []int64) []NodeID {
	return graph.WitnessParents(g, source, dist)
}

// Metrics re-exports the simulator's complexity measures: Rounds (time),
// MaxEdgeMessages (congestion), MaxAwake (energy), Messages, and more.
type Metrics = simnet.Metrics

// ComputeError is what every entry point returns for well-formed input it
// cannot process: a MaxRounds overrun, a strict-CONGEST violation, an
// invalid option combination, or weights outside the domain
// n·maxW·scale + maxOffset·scale + 1 < 2^61 (scale = n+1 when some weight
// is 0). Classify it with errors.As.
type ComputeError = simnet.ComputeError

// Options tunes a run.
type Options struct {
	// Model selects CONGEST (default) or the sleeping model.
	Model Model
	// EpsNum/EpsDen is the cutter ε in (0,1); defaults to 1/2.
	EpsNum, EpsDen int64
	// MaxRounds caps the simulation (0 = a generous default).
	MaxRounds int64
	// StrictCongest enforces the strict CONGEST bandwidth model on
	// SSSP/CSSP/APSP runs (ModelCongest only): every message is sized and
	// the run fails loudly if any exceeds the O(log n)-bit budget.
	// Result.Metrics.MaxMessageBits then reports the largest message seen.
	StrictCongest bool
	// Workers bounds the worker pool used by APSP's per-source instances
	// (0 = runtime.NumCPU(); 1 = sequential). SSSP/CSSP/BFS ignore it; use
	// IntraWorkers to parallelize a single simulation.
	Workers int
	// IntraWorkers parallelizes a single simulation across cores: each
	// round's node resumes fan out over this many goroutines and re-merge
	// at a deterministic barrier, so results — Metrics, span ledger, error
	// text — are byte-identical to a sequential run for every value. 0 or
	// 1 means sequential. Applies to SSSP/CSSP (and each APSP instance;
	// compose with Workers carefully — the two pools multiply). The BFS
	// baselines stay sequential.
	IntraWorkers int
	// RecordPhases attaches the per-phase span ledger: on SSSP/CSSP runs
	// Result.Metrics.Spans breaks the run's rounds/messages/awake rounds
	// down by pipeline phase and recursion depth (an exact partition of
	// the totals), and on APSP runs APSPResult.Composition.Spans carries
	// the ledger merged over all composed instances. Opt-in: the ledger
	// adds a little engine bookkeeping per message and wake.
	RecordPhases bool
}

// resolved validates the options once and normalizes the zero value: a nil
// Options or a zero Model means ModelCongest; any other unknown Model is
// rejected here with a descriptive error, so SSSP/CSSP/BFS all fail
// consistently instead of each reporting its own opaque variant.
func (o *Options) resolved() (Model, core.Options, error) {
	m := ModelCongest
	copt := core.Options{}
	if o != nil {
		if o.Model != 0 {
			m = o.Model
		}
		copt = core.Options{EpsNum: o.EpsNum, EpsDen: o.EpsDen, MaxRounds: o.MaxRounds, StrictCongest: o.StrictCongest, RecordPhases: o.RecordPhases, Workers: o.IntraWorkers}
	}
	switch m {
	case ModelCongest, ModelSleeping:
		if copt.StrictCongest && m != ModelCongest {
			return 0, core.Options{}, simnet.Computef(
				"dsssp: Options.StrictCongest applies to ModelCongest only (got %s)", m)
		}
		return m, copt, nil
	default:
		return 0, core.Options{}, simnet.Computef(
			"dsssp: invalid Options.Model %d: use ModelCongest (%d), ModelSleeping (%d), or leave it zero for the CONGEST default",
			int(m), int(ModelCongest), int(ModelSleeping))
	}
}

func (o *Options) workers() int {
	if o == nil || o.Workers == 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// Result is the outcome of a distance computation.
type Result struct {
	// Dist[v] is the exact distance (Inf if unreachable).
	Dist []int64
	// Metrics holds time/congestion/energy measurements.
	Metrics Metrics
	// SubproblemsMax is the maximum number of recursion subproblems any
	// node participated in (Lemma 2.4 bounds it by O(log D)).
	SubproblemsMax int
}

// SSSP computes exact single-source shortest paths from source with the
// paper's algorithm in the selected model.
func SSSP(g *Graph, source NodeID, opts *Options) (*Result, error) {
	return CSSP(g, map[NodeID]int64{source: 0}, opts)
}

// CSSP computes exact closest-source distances dist(S,v) = min over sources
// s of offset(s)+dist(s,v) (Definition 2.3 with offsets).
func CSSP(g *Graph, sources map[NodeID]int64, opts *Options) (*Result, error) {
	m, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	var (
		d   []int64
		st  core.Stats
		met simnet.Metrics
	)
	if m == ModelCongest {
		d, st, met, err = core.RunCSSP(g, sources, copt)
	} else {
		d, st, met, err = core.RunEnergyCSSP(g, sources, copt)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Dist: d, Metrics: met}
	for _, k := range st.Subproblems {
		if k > res.SubproblemsMax {
			res.SubproblemsMax = k
		}
	}
	return res, nil
}

// BFS computes hop distances from the sources up to the threshold. In
// ModelSleeping it uses the cover-driven low-energy BFS (Theorem 3.13/3.14);
// in ModelCongest the plain distributed BFS.
func BFS(g *Graph, sources map[NodeID]bool, threshold int64, opts *Options) (*Result, error) {
	m, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	if copt.StrictCongest {
		// The CONGEST-side BFS baseline simulates in the sleeping engine
		// (always awake) for the energy contrast, so the strict bandwidth
		// budget does not attach to it.
		return nil, simnet.Computef("dsssp: Options.StrictCongest is supported for SSSP/CSSP/APSP, not BFS")
	}
	for s := range sources {
		if s < 0 || int(s) >= g.N() {
			return nil, simnet.Computef("dsssp: BFS source %d out of range [0,%d)", s, g.N())
		}
	}
	if m == ModelSleeping {
		src := make(map[NodeID]int64, len(sources))
		for s := range sources {
			src[s] = 0
		}
		d, met, err := energybfs.RunBFS(g, src, threshold)
		if err != nil {
			return nil, err
		}
		return &Result{Dist: d, Metrics: met}, nil
	}
	src := make(map[NodeID]bool, len(sources))
	for s := range sources {
		src[s] = true
	}
	d, met, err := baseline.AlwaysAwakeBFS(g, src, threshold)
	if err != nil {
		return nil, err
	}
	return &Result{Dist: d, Metrics: met}, nil
}

// APSPResult reports the scheduling composition of n SSSP instances
// (Section 1.1's APSP implication).
type APSPResult struct {
	// Dist[s][v] is the exact distance from s to v.
	Dist [][]int64
	// Composition holds dilation, congestion, and makespans (aligned,
	// random-delay, sequential).
	Composition sched.Composition
}

// APSP computes all-pairs shortest paths by running one CSSP instance per
// source, recording each instance's edge usage, and composing the traces
// under random-delay scheduling (seeded). The per-instance polylog
// congestion is what makes the random-delay makespan Õ(n).
//
// The per-source instances are independent simulations and are fanned out
// over Options.Workers goroutines (default runtime.NumCPU()); traces are
// composed in source order, so the result is identical to a sequential run.
func APSP(g *Graph, opts *Options, seed int64) (*APSPResult, error) {
	return APSPFrom(g, nil, opts, seed)
}

// APSPFrom is APSP restricted to the given sources (nil means all n). The
// per-source instances run and compose exactly as in APSP, so for the same
// seed a source's distance row is identical whether it was computed in a
// full or a partial fan-out — which is what lets the serving layer's
// incremental path recompute only the sources an edge delta dirtied and
// reuse every other cached row verbatim. Dist rows for sources outside the
// set stay nil, and Composition covers only the instances actually run.
// Sources must be distinct and in [0,n).
func APSPFrom(g *Graph, sources []NodeID, opts *Options, seed int64) (*APSPResult, error) {
	_, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	seen := make(map[NodeID]bool, len(sources))
	for _, s := range sources {
		if seen[s] {
			return nil, simnet.Computef("dsssp: APSPFrom: duplicate source %d", s)
		}
		seen[s] = true
	}
	out := &APSPResult{Dist: make([][]int64, g.N())}
	runner := func(g *Graph, s NodeID) (sched.Trace, error) {
		d, _, met, tr, err := core.RunCSSPTraced(g, map[NodeID]int64{s: 0}, copt)
		if err != nil {
			return sched.Trace{}, err
		}
		out.Dist[s] = d
		return sched.Trace{Entries: tr, Rounds: met.Rounds, MaxMessageBits: met.MaxMessageBits, Spans: met.Spans}, nil
	}
	comp, err := sched.APSPParallel(g, sources, runner, seed, opts.workers())
	if err != nil {
		return nil, err
	}
	out.Composition = comp
	return out, nil
}
