package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"dsssp/internal/simnet"
)

// Phase describes one stage of the CSSP phase pipeline: the span-ledger key
// it reports under, the paper construct it implements, and the per-level
// round-envelope term the paper charges it with. The pipeline (pipeline.go)
// opens a ledger span around every stage, so BENCH reports can break a
// scenario's rounds down against exactly these terms — the per-phase
// accounting Forster–Nanongkai (arXiv:1711.01364) and Elkin
// (arXiv:1703.01939) use to argue their round bounds.
type Phase struct {
	// Key is the span-ledger / report identifier ("cutter", "barrier", …).
	Key string
	// Title is the human-readable stage name.
	Title string
	// Ref cites the paper construct the stage implements.
	Ref string
	// Envelope is the paper's per-recursion-level round bound for the
	// stage (n̂ = component size, D = the call's threshold).
	Envelope string
}

// The pipeline's phases. PhaseCutter and PhaseBFSLayers are the two
// instantiations of the model-sensitive cut stage: the CONGEST recursion
// runs the fragment cutter, the sleeping-model recursion runs bounded-hop
// BFS layers over the rounded metric.
var (
	// PhaseRun is the span every node starts in; it collects engine rounds
	// spent outside any pipeline stage (startup and teardown residue). Its
	// key must match the engine's implicit root span (simnet.RootSpanName).
	PhaseRun = Phase{
		Key: "run", Title: "Outside the pipeline",
		Ref: "—", Envelope: "O(1)",
	}
	PhaseParticipate = Phase{
		Key: "participate", Title: "Participation exchange",
		Ref: "Sec 2.3 (subproblem entry)", Envelope: "O(1)",
	}
	PhaseBase = Phase{
		Key: "base", Title: "Base case D = 1",
		Ref: "Sec 2.3 step 1", Envelope: "O(1)",
	}
	PhaseDecompose = Phase{
		Key: "decompose", Title: "Spanning-forest decomposition",
		Ref: "Thm 3.1", Envelope: "O(n̂ log n̂)",
	}
	PhaseCutter = Phase{
		Key: "cutter", Title: "Approximate cutter",
		Ref: "Lemma 2.1", Envelope: "O(n̂/ε)",
	}
	PhaseBFSLayers = Phase{
		Key: "bfs-layers", Title: "Bounded-hop BFS layers",
		Ref: "Thm 3.13/3.14 (energy cutter)", Envelope: "O((D/ρ + n̂) polylog)",
	}
	PhaseBarrier = Phase{
		Key: "barrier", Title: "Component barrier",
		Ref: "Sec 2.3 step 4 / Sec 3.1.1", Envelope: "O(n̂)",
	}
	PhaseMerge = Phase{
		Key: "merge", Title: "Cut offsets & merge",
		Ref: "Sec 2.3 steps 5–6", Envelope: "O(1)",
	}
)

// PipelinePhases returns every phase the pipeline can report, in execution
// order — renderers use the order for flamegraph-style tables and the Ref
// column for self-describing reports.
func PipelinePhases() []Phase {
	return []Phase{
		PhaseRun, PhaseParticipate, PhaseBase, PhaseDecompose,
		PhaseCutter, PhaseBFSLayers, PhaseBarrier, PhaseMerge,
	}
}

// PhaseByKey looks a phase up by its ledger key.
func PhaseByKey(key string) (Phase, bool) {
	for _, p := range PipelinePhases() {
		if p.Key == key {
			return p, true
		}
	}
	return Phase{}, false
}

// PhaseRank returns the phase's position in execution order (unknown keys
// sort last) — the deterministic ordering for breakdown tables.
func PhaseRank(key string) int {
	for i, p := range PipelinePhases() {
		if p.Key == key {
			return i
		}
	}
	return len(PipelinePhases())
}

// PhaseStat is one pipeline phase of a run's breakdown, aggregated over
// recursion depths. The counters partition the run-level metrics exactly
// (the engine's span ledger is an exact partition of its Metrics; see
// internal/simnet/span.go): summing Rounds/Messages/AwakeRounds over a
// run's phases reproduces its Rounds/Messages/TotalAwake, and the maximum
// MaxMessageBits reproduces its — asserted over the full quick sweep by the
// harness's TestPhaseConservationQuickSweep. For APSP, phases are merged
// across the composed instances, so only the summed metrics (messages) and
// the bit maximum tie back to the scenario row (its rounds column reports
// the heaviest single instance).
type PhaseStat struct {
	// Phase is the pipeline phase key (PipelinePhases).
	Phase string `json:"phase"`
	// Ref cites the paper construct the phase implements.
	Ref string `json:"ref,omitempty"`
	// Rounds is the wall-clock rounds attributed to the phase.
	Rounds int64 `json:"rounds"`
	// Messages is the number of messages sent from within the phase.
	Messages int64 `json:"messages,omitempty"`
	// AwakeRounds is the summed node-awake rounds spent in the phase.
	AwakeRounds int64 `json:"awake_rounds,omitempty"`
	// MaxMessageBits is the largest single message the phase sent (strict
	// runs only).
	MaxMessageBits int64 `json:"max_message_bits,omitempty"`
	// RoundsByDepth splits Rounds by recursion depth as "r0/r1/…" (depth 0
	// first; omitted when the phase only ever ran at depth 0). A compact
	// string keeps the flamegraph detail without exploding the JSON.
	RoundsByDepth string `json:"rounds_by_depth,omitempty"`
}

// PhasesFromSpans aggregates an engine span ledger into the per-phase
// breakdown that sweep reports and served queries both carry: spans
// sharing a phase key merge across recursion depths, with the depth split
// preserved in RoundsByDepth. Rows are ordered by pipeline execution order
// (PhaseRank), so reports read like the recursion runs.
func PhasesFromSpans(spans []simnet.SpanMetrics) []PhaseStat {
	if len(spans) == 0 {
		return nil
	}
	idx := make(map[string]int)
	var out []PhaseStat
	depths := make(map[string][]int64)
	for _, sp := range spans {
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			ps := PhaseStat{Phase: sp.Name}
			if ph, known := PhaseByKey(sp.Name); known {
				ps.Ref = ph.Ref
			}
			out = append(out, ps)
		}
		out[i].Rounds += sp.Rounds
		out[i].Messages += sp.Messages
		out[i].AwakeRounds += sp.AwakeRounds
		if sp.MaxMessageBits > out[i].MaxMessageBits {
			out[i].MaxMessageBits = sp.MaxMessageBits
		}
		d := depths[sp.Name]
		for len(d) <= sp.Depth {
			d = append(d, 0)
		}
		d[sp.Depth] += sp.Rounds
		depths[sp.Name] = d
	}
	for i := range out {
		if d := depths[out[i].Phase]; len(d) > 1 {
			parts := make([]string, len(d))
			for j, r := range d {
				parts[j] = fmt.Sprintf("%d", r)
			}
			out[i].RoundsByDepth = strings.Join(parts, "/")
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := PhaseRank(out[a].Phase), PhaseRank(out[b].Phase)
		if ra != rb {
			return ra < rb
		}
		return out[a].Phase < out[b].Phase
	})
	return out
}

// PhaseRounds sums the per-phase round attribution. Because the span
// ledger partitions the engine's metrics exactly, this equals the run's
// total rounds — the conservation law the serving layer's ?trace=1
// consumers (and tests) rely on.
func PhaseRounds(phases []PhaseStat) int64 {
	var total int64
	for _, ph := range phases {
		total += ph.Rounds
	}
	return total
}

// depthOf recovers the recursion depth from a call's heap path (path 1 is
// the root call at depth 0).
func depthOf(path uint64) int {
	return bits.Len64(path) - 1
}
