// The CSSP phase pipeline: the shared skeleton of the CONGEST and
// sleeping-model recursions. Both models run the same sequence of stages —
// participation exchange, base case, spanning-forest decomposition,
// approximate cut, first recursion, barrier, cut-offset merge, second
// recursion, barrier, combine — and differ only in two model-sensitive
// stages, supplied by a variant: the cut (fragment cutter vs bounded-hop
// BFS layers over rounded weights) and the component barrier (event-driven
// convergecast vs count-based periodic tree sweeps).
//
// Every stage runs inside a span of the engine's ledger (simnet.Config
// .RecordSpans), keyed by the stage's Phase and the call's recursion depth,
// so reports can break the paper's round bounds down per phase against
// per-phase envelopes. Opening and closing spans is engine-side accounting
// only: the pipeline's message and round schedule is byte-identical to the
// pre-pipeline monolithic recursions, which the conservation and golden
// tests pin.
package core

import (
	"fmt"
	"math/bits"
	"sort"

	"dsssp/internal/bfs"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// variant supplies the model-sensitive stages of the pipeline.
type variant interface {
	// cutterPhase names the cut stage in the span ledger.
	cutterPhase() Phase
	// register declares the node's participation in the call before the
	// pipeline's first exchange (the energy variant feeds its cover
	// provider; engine-side only, never a message).
	register(s *cssp, path uint64, v graph.NodeID)
	// cut runs the approximate cutter (Lemma 2.1) and returns the node's
	// approximate distance, or graph.Inf.
	cut(s *cssp, p callParams, entry int64, fr forest.Result, eligFn func(int) bool) int64
	// barrier re-synchronizes the call's component after a child
	// recursion (the paper's step 4).
	barrier(s *cssp, fr forest.Result, tag uint64, entry int64)
	// checkOffsets enables the negative-cut-offset assertion in the merge
	// stage (the CONGEST recursion asserts; the energy recursion, whose
	// cutter works on a rounded metric, stays tolerant).
	checkOffsets() bool
}

// runCall executes one thresholded CSSP subproblem through the phase
// pipeline; only participants call it. All participants within one parent
// component enter at a common round. Returns dist(S,·) if <= p.d, else
// graph.Inf.
func (s *cssp) runCall(p callParams) int64 {
	mb := s.mb
	c := mb.C
	s.subproblems++
	entry := mb.Round()
	depth := depthOf(p.path)
	s.v.register(s, p.path, c.ID())

	// (1) Participation exchange: learn which neighbors are in this call.
	var elig []bool
	mb.Span(PhaseParticipate.Key, depth, func() {
		for i := 0; i < c.Degree(); i++ {
			if p.eligible == nil || p.eligible[i] {
				mb.Send(i, s.tag(p.path, offExch), struct{}{})
			}
		}
		mb.SleepUntil(entry + 1)
		elig = make([]bool, c.Degree())
		for _, m := range mb.Take(s.tag(p.path, offExch)) {
			if p.eligible == nil || p.eligible[m.NbIndex] {
				elig[m.NbIndex] = true
			}
		}
	})
	eligFn := func(i int) bool { return elig[i] }

	// (2) Base case: distances in {0, 1}.
	if p.d == 1 {
		d := graph.Inf
		mb.Span(PhaseBase.Key, depth, func() {
			if p.offset >= 0 && p.offset <= 1 {
				d = p.offset
			}
			if p.offset == 0 {
				for i := 0; i < c.Degree(); i++ {
					if elig[i] && c.Weight(i) == 1 {
						mb.Send(i, s.tag(p.path, offBase), struct{}{})
					}
				}
			}
			mb.SleepUntil(entry + 2)
			if len(mb.Take(s.tag(p.path, offBase))) > 0 && d > 1 {
				d = 1
			}
		})
		return d
	}

	// (3) Spanning forest of the participant subgraph — the per-component
	// coordination structure (Thm 3.1; model-agnostic).
	var fr forest.Result
	mb.Span(PhaseDecompose.Key, depth, func() {
		fr = forest.Build(mb, forest.Params{
			Tag:        s.tag(p.path, offForest),
			StartRound: entry + 1,
			SizeBound:  p.sizeBound,
			Eligible:   eligFn,
		})
	})

	// (4) Approximate cut (Lemma 2.1) with W = D — the model-sensitive
	// stage: fragment cutter in CONGEST, bounded-hop BFS layers over the
	// rounded metric in the sleeping model.
	approx := graph.Inf
	mb.Span(s.v.cutterPhase().Key, depth, func() {
		approx = s.v.cut(s, p, entry, fr, eligFn)
	})
	// V1 membership: dist'(v) <= D + εD (inclusive: the cutter's additive
	// error bound is <= εW, so inclusion keeps every dist <= D node).
	inV1 := approx != graph.Inf && approx*s.epsDen <= p.d*(s.epsDen+s.epsNum)
	d1h := p.d / 2

	// (5) First recursion: (V1, S, D/2).
	d1 := graph.Inf
	if inV1 {
		d1 = s.runCall(callParams{
			path: 2 * p.path, d: d1h, offset: p.offset,
			sizeBound: fr.Size, eligible: elig,
		})
	}
	mb.Span(PhaseBarrier.Key, depth, func() {
		s.v.barrier(s, fr, s.tag(p.path, offBarrier1), entry)
	})

	// (6) Cut offsets: V2 nodes announce their exact distances; boundary
	// nodes simulate the imaginary cut nodes x_{vu}.
	inV2 := d1 != graph.Inf
	offset2 := bfs.NotSource
	mb.Span(PhaseMerge.Key, depth, func() {
		b := mb.Round()
		if inV2 {
			for i := 0; i < c.Degree(); i++ {
				if elig[i] {
					mb.Send(i, s.tag(p.path, offV2Exch), d1)
				}
			}
		}
		mb.SleepUntil(b + 1)
		v2Msgs := mb.Take(s.tag(p.path, offV2Exch))
		if inV1 && !inV2 {
			for _, m := range v2Msgs {
				cand := m.Body.(int64) + c.Weight(m.NbIndex) - d1h
				if cand < 0 && s.v.checkOffsets() {
					panic(fmt.Sprintf("core: node %d: negative cut offset %d", c.ID(), cand))
				}
				if offset2 == bfs.NotSource || cand < offset2 {
					offset2 = cand
				}
			}
			// An original source whose offset exceeds D/2 seeds paths that
			// never enter V2; carry it into the second call.
			if p.offset > d1h {
				if cand := p.offset - d1h; offset2 == bfs.NotSource || cand < offset2 {
					offset2 = cand
				}
			}
		}
	})

	// (7) Second recursion: (V1∖V2, X, D/2).
	d2 := graph.Inf
	if inV1 && !inV2 {
		d2 = s.runCall(callParams{
			path: 2*p.path + 1, d: d1h, offset: offset2,
			sizeBound: fr.Size, eligible: elig,
		})
	}
	mb.Span(PhaseBarrier.Key, depth, func() {
		s.v.barrier(s, fr, s.tag(p.path, offBarrier2), entry)
	})

	// (8) Combine.
	switch {
	case inV2:
		return d1
	case inV1 && d2 != graph.Inf:
		return d1h + d2
	default:
		return graph.Inf
	}
}

// sourceOffset is one (source node, offset) pair of a CSSP instance.
type sourceOffset struct {
	v   graph.NodeID
	off int64
}

// sortedSources returns the source set in ascending node-ID order. Every
// place that seeds per-source work iterates this slice, never the map:
// Go's map order is randomized per run, and a run's error messages, traces,
// and span ledgers must be reproducible.
func sortedSources(sources map[graph.NodeID]int64) []sourceOffset {
	srcs := make([]sourceOffset, 0, len(sources))
	for v, off := range sources {
		srcs = append(srcs, sourceOffset{v, off})
	}
	sort.Slice(srcs, func(a, b int) bool { return srcs[a].v < srcs[b].v })
	return srcs
}

// problem is a prepared CSSP instance: the (possibly rescaled) graph the
// engine runs, the Theorem 2.7 weight scale, the largest rescaled source
// offset, and the starting threshold.
type problem struct {
	run    *graph.Graph
	scale  int64
	maxOff int64
	d0     int64
	levels int
}

// thresholdLimit bounds startThreshold's distance bound: D0 is the power of
// two above the bound, and it must stay below graph.Inf (2^62) so that every
// threshold and finite distance stays distinct from +Inf.
const thresholdLimit = graph.Inf / 2

// mulBelow returns a·b for non-negative a and b, and whether the product is
// below thresholdLimit (false on int64 overflow too).
func mulBelow(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo < uint64(thresholdLimit)
}

// InWeightDomain reports whether an n-node instance lies in the engine's
// weight domain: n·maxW·scale + maxOff·scale + 1 < 2^61, where maxW is the
// largest edge weight, maxOff the largest source offset, and scale = n+1
// when some edge weight is zero (Theorem 2.7's rescaling, which also lifts
// zero weights to 1), else 1. Inside it the start threshold D0 stays below
// graph.Inf; the products are checked without overflow. This is the one
// statement of the domain: prepareProblem enforces it, and the serving
// layer applies it at ingress.
func InWeightDomain(n int, maxW, maxOff int64, zero bool) bool {
	scale := int64(1)
	if zero {
		scale = int64(n) + 1
	}
	w, ok := mulBelow(maxW, scale)
	if zero {
		w = max(w, 1)
	}
	off, okOff := mulBelow(maxOff, scale)
	spread, okN := mulBelow(int64(n), w)
	return ok && okOff && okN && spread+off+1 < thresholdLimit
}

// prepareProblem validates the sources, applies the Theorem 2.7 zero-weight
// rescaling, and derives the initial power-of-two threshold D0. It rejects
// instances outside the weight domain (InWeightDomain), where D0 would
// reach graph.Inf.
func prepareProblem(g *graph.Graph, srcs []sourceOffset) (problem, error) {
	var maxOff int64
	for _, s := range srcs {
		if s.v < 0 || int(s.v) >= g.N() {
			return problem{}, simnet.Computef("core: source %d out of range [0,%d)", s.v, g.N())
		}
		if s.off < 0 {
			return problem{}, simnet.Computef("core: negative offset %d at source %d", s.off, s.v)
		}
		maxOff = max(maxOff, s.off)
	}
	n := int64(g.N())
	pr := problem{run: g, scale: 1}
	for _, e := range g.Edges() {
		if e.W == 0 {
			pr.scale = n + 1
			break
		}
	}
	rawMaxW := g.MaxWeight()
	if !InWeightDomain(g.N(), rawMaxW, maxOff, pr.scale > 1) {
		return problem{}, simnet.Computef(
			"core: weights out of domain: need n·maxW·scale + maxOffset·scale + 1 < 2^61 (n=%d, max weight %d, scale %d)",
			n, rawMaxW, pr.scale)
	}
	pr.maxOff = maxOff * pr.scale
	if pr.scale > 1 {
		// Scaling every weight by n+1 (zeros to 1) preserves exact
		// distances: a shortest path gains less than n+1 from the
		// zero-weight perturbation.
		pr.run = g.Reweight(func(_ graph.EdgeID, w int64) int64 {
			if w == 0 {
				return 1
			}
			return w * pr.scale
		})
	}
	pr.d0, pr.levels = startThreshold(pr.run, pr.maxOff)
	return pr, nil
}

// collectOutputs descales the per-node outputs into distances and stats.
func collectOutputs(g *graph.Graph, res *simnet.Result, scale int64, levels int) ([]int64, Stats) {
	dists := make([]int64, g.N())
	stats := Stats{Subproblems: make([]int, g.N()), Levels: levels}
	for v, o := range res.Outputs {
		out := o.(output)
		if out.Dist == graph.Inf {
			dists[v] = graph.Inf
		} else {
			dists[v] = out.Dist / scale
		}
		stats.Subproblems[v] = out.Subproblems
	}
	return dists, stats
}
