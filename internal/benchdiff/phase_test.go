package benchdiff

import (
	"strings"
	"testing"

	"dsssp/internal/core"
	"dsssp/internal/harness"
)

func resWithPhases(name string, roundsEnv int64, phases ...core.PhaseStat) harness.Result {
	r := res(name, 0, roundsEnv)
	for _, p := range phases {
		r.Rounds += p.Rounds
	}
	r.Phases = phases
	return r
}

// TestPhaseGateLocalizedRegression: a slowdown confined to one phase gates
// under PhaseWorsen even when the scenario-level rounds ratio stays inside
// EnvelopeWorsen (the other phases shrink to compensate).
func TestPhaseGateLocalizedRegression(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 9000},
		core.PhaseStat{Phase: "cutter", Rounds: 1000},
	))
	// Total 10000 → 10000: the scenario ratio is flat, but the cutter
	// doubled at decompose's expense.
	shifted := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 8000},
		core.PhaseStat{Phase: "cutter", Rounds: 2000},
	))
	d, err := Compare(old, shifted, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d.OK || d.Regressed != 1 {
		t.Fatalf("localized phase regression passed the gate: %+v", d)
	}
	reasons := strings.Join(d.Deltas[0].Reasons, "\n")
	if !strings.Contains(reasons, `phase "cutter"`) {
		t.Fatalf("reason does not name the phase: %q", reasons)
	}
}

// TestPhaseGateMinDelta: tiny phases move a few rounds without gating — the
// absolute PhaseMinDelta floor absorbs them (they still mark the scenario
// changed).
func TestPhaseGateMinDelta(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 10000},
		core.PhaseStat{Phase: "merge", Rounds: 4},
	))
	small := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 10000},
		core.PhaseStat{Phase: "merge", Rounds: 12},
	))
	d, err := Compare(old, small, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatalf("+8 rounds on a 4-round phase gated despite PhaseMinDelta=16: %+v", d)
	}
	if d.Changed != 1 {
		t.Fatalf("phase movement not detected as a change: %+v", d)
	}
}

// TestPhaseGateDisabled: a negative PhaseWorsen turns per-phase gating off.
func TestPhaseGateDisabled(t *testing.T) {
	old := report(resWithPhases("a", 100000, core.PhaseStat{Phase: "cutter", Rounds: 1000}))
	worse := report(resWithPhases("a", 100000, core.PhaseStat{Phase: "cutter", Rounds: 5000}))
	th := DefaultThresholds()
	th.PhaseWorsen = -1
	th.EnvelopeWorsen = -1 // the scenario total would gate otherwise
	d, err := Compare(old, worse, th)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatalf("disabled phase gate still regressed: %+v", d)
	}
}

// TestPhaseGateNewPhase: a phase appearing from nowhere with substantial
// rounds gates (its old ratio is 0, so any growth beyond the floor trips).
func TestPhaseGateNewPhase(t *testing.T) {
	old := report(resWithPhases("a", 100000, core.PhaseStat{Phase: "decompose", Rounds: 10000}))
	grown := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 10000},
		core.PhaseStat{Phase: "bfs-layers", Rounds: 3000},
	))
	d, err := Compare(old, grown, Thresholds{EnvelopeWorsen: -1, PhaseWorsen: 0.25, PhaseMinDelta: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK {
		t.Fatalf("new 3000-round phase passed the gate: %+v", d)
	}
}

// TestPhaseDeltasInMetrics: phase rows surface as phase:<key> metric deltas
// so the JSON diff (and the markdown "other deltas" column) carries them.
func TestPhaseDeltasInMetrics(t *testing.T) {
	old := report(resWithPhases("a", 100000, core.PhaseStat{Phase: "cutter", Rounds: 1000}))
	moved := report(resWithPhases("a", 100000, core.PhaseStat{Phase: "cutter", Rounds: 1100}))
	d, err := Compare(old, moved, Thresholds{EnvelopeWorsen: -1, PhaseWorsen: -1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range d.Deltas[0].Metrics {
		if m.Metric == "phase:cutter" {
			found = true
			if m.Old != 1000 || m.New != 1100 {
				t.Fatalf("phase delta = %+v, want 1000 → 1100", m)
			}
			if m.OldRatio != 0.01 || m.NewRatio != 0.011 {
				t.Fatalf("phase ratios = %+v, want 0.01 → 0.011", m)
			}
		}
	}
	if !found {
		t.Fatalf("no phase:cutter metric delta: %+v", d.Deltas[0].Metrics)
	}
}

// TestPhaseSelfDiffUnchanged: phases must not destabilize the
// baseline-currency invariant — a self-diff with phases stays unchanged.
func TestPhaseSelfDiffUnchanged(t *testing.T) {
	rep := report(resWithPhases("a", 100000,
		core.PhaseStat{Phase: "decompose", Rounds: 9000, Messages: 50},
		core.PhaseStat{Phase: "cutter", Rounds: 1000, Messages: 20, RoundsByDepth: "600/400"},
	))
	d, err := Compare(rep, rep, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Unchanged != 1 {
		t.Fatalf("self-diff with phases not clean: %+v", d)
	}
}
