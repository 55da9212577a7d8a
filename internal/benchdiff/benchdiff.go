// Package benchdiff compares dsssp-bench JSON reports (the BENCH_*.json
// artifacts) across PRs: scenarios are aligned by their stable name, every
// measured metric and measured/envelope ratio is diffed, and configurable
// thresholds turn ratio drift into a hard regression verdict — the
// machinery behind the CI gate (cmd/dsssp-diff).
//
// Because harness reports are deterministic — same scenario list ⇒ byte-
// identical results on any machine at any parallelism — every non-zero
// delta is a real behavior change, not noise; the thresholds only decide
// which changes are large enough to block a merge. The one exception is
// the opt-in perf sidecar (harness.Result.Perf, wall_ns/allocs): it is
// machine-dependent by design and deliberately excluded from comparison
// and gating, so perf-annotated reports diff clean against plain ones.
package benchdiff

import (
	"fmt"

	"dsssp/internal/core"
	"dsssp/internal/harness"
)

// Thresholds configures what counts as a regression.
type Thresholds struct {
	// EnvelopeWorsen is the maximum tolerated relative worsening of any
	// measured/envelope ratio before the scenario regresses: 0.10 lets a
	// ratio grow by 10% (new <= old × 1.10). Negative disables ratio
	// gating. Applies to the rounds, congestion, awake, and message-bits
	// ratios wherever both reports claim the same envelope.
	EnvelopeWorsen float64
	// AllowNewFailures keeps a scenario that verified in the old report
	// but fails in the new one from being a regression (it is still
	// counted and reported). Default false: new failures gate.
	AllowNewFailures bool
	// FailOnRemoved treats scenarios present in the old report but missing
	// from the new one as regressions (a silently dropped workload can
	// hide a regression). Default false: removals are reported only.
	FailOnRemoved bool
	// PhaseWorsen gates the per-phase round breakdown: a pipeline phase
	// whose rounds/envelope ratio worsens by more than this fraction
	// regresses the scenario, so a slowdown localized in (say) the cutter
	// gates even while the scenario total stays inside EnvelopeWorsen.
	// Negative disables per-phase gating. Phases only carry a ratio where
	// the scenario claims a rounds envelope (CONGEST pipelines).
	PhaseWorsen float64
	// PhaseMinDelta is the minimum absolute per-phase rounds movement
	// before PhaseWorsen applies: tiny phases (a few rounds) would
	// otherwise gate on trivially small shifts that the scenario-level
	// ratio absorbs.
	PhaseMinDelta int64
}

// DefaultThresholds is the CI gate configuration: 10% envelope-ratio slack
// per scenario, 25% per pipeline phase (at least 16 rounds of movement),
// new failures and nothing else blocking.
func DefaultThresholds() Thresholds {
	return Thresholds{EnvelopeWorsen: 0.10, PhaseWorsen: 0.25, PhaseMinDelta: 16}
}

// Status classifies one aligned scenario.
type Status string

// Statuses.
const (
	// StatusUnchanged: every compared metric is identical.
	StatusUnchanged Status = "unchanged"
	// StatusChanged: metrics moved but within thresholds.
	StatusChanged Status = "changed"
	// StatusRegressed: at least one gated check failed.
	StatusRegressed Status = "regressed"
	// StatusAdded / StatusRemoved: present on only one side.
	StatusAdded   Status = "added"
	StatusRemoved Status = "removed"
)

// MetricDelta is one metric of one scenario, old vs new. Ratios are
// measured/envelope and are only compared when both sides claim an
// envelope; Ratio values are negative when no envelope applies.
type MetricDelta struct {
	Metric   string  `json:"metric"`
	Old      int64   `json:"old"`
	New      int64   `json:"new"`
	OldRatio float64 `json:"old_ratio,omitempty"`
	NewRatio float64 `json:"new_ratio,omitempty"`
	// RelChange is (NewRatio-OldRatio)/OldRatio when ratios apply and
	// OldRatio > 0, else (New-Old)/Old when Old > 0, else 0.
	RelChange float64 `json:"rel_change,omitempty"`
	// Regressed marks a ratio worsening beyond Thresholds.EnvelopeWorsen.
	Regressed bool `json:"regressed,omitempty"`
}

// Delta is one scenario's comparison.
type Delta struct {
	Scenario string `json:"scenario"`
	Status   Status `json:"status"`
	// Metrics holds the per-metric movements (empty for added/removed).
	Metrics []MetricDelta `json:"metrics,omitempty"`
	// Reasons explains a regressed status, one line per gated check.
	Reasons []string `json:"reasons,omitempty"`
	// OldOK/NewOK echo the verification flags.
	OldOK bool `json:"old_ok"`
	NewOK bool `json:"new_ok"`
}

// SuiteInfo summarizes one side of the comparison.
type SuiteInfo struct {
	Suite     string `json:"suite"`
	Quick     bool   `json:"quick"`
	Scenarios int    `json:"scenarios"`
	Failures  int    `json:"failures"`
}

// DiffSchema versions the diff's own JSON output.
const DiffSchema = "dsssp-diff/v1"

// Diff is the full comparison of two reports.
type Diff struct {
	Schema     string     `json:"schema"`
	Old        SuiteInfo  `json:"old_suite"`
	New        SuiteInfo  `json:"new_suite"`
	Thresholds Thresholds `json:"thresholds"`
	Deltas     []Delta    `json:"deltas"`

	Unchanged   int `json:"unchanged"`
	Changed     int `json:"changed"`
	Regressed   int `json:"regressed"`
	Added       int `json:"added"`
	Removed     int `json:"removed"`
	NewFailures int `json:"new_failures"`

	// OK is the gate verdict: no regressions under the thresholds.
	OK bool `json:"ok"`
}

// Compare aligns two reports by scenario name and applies the thresholds.
// The reports must come from the same suite flavor (suite name and quick
// flag): diffing a quick sweep against a full one would compare different
// graphs and always "regress".
func Compare(old, new harness.Report, th Thresholds) (Diff, error) {
	if old.Suite != new.Suite || old.Quick != new.Quick {
		return Diff{}, fmt.Errorf(
			"benchdiff: incomparable reports: old is suite %q (quick=%v), new is suite %q (quick=%v)",
			old.Suite, old.Quick, new.Suite, new.Quick)
	}
	d := Diff{
		Schema:     DiffSchema,
		Old:        suiteInfo(old),
		New:        suiteInfo(new),
		Thresholds: th,
		OK:         true,
	}
	oldBy := byName(old)
	newBy := byName(new)

	// Old-report order first (aligned + removed), then additions in
	// new-report order — stable and diff-friendly output.
	for _, or := range old.Results {
		nr, ok := newBy[or.Scenario]
		if !ok {
			delta := Delta{Scenario: or.Scenario, Status: StatusRemoved, OldOK: or.OK}
			if th.FailOnRemoved {
				delta.Status = StatusRegressed
				delta.Reasons = append(delta.Reasons, "scenario removed from the new report")
			}
			d.add(delta)
			continue
		}
		if or.OK && !nr.OK {
			d.NewFailures++
		}
		d.add(compareOne(or, nr, th))
	}
	for _, nr := range new.Results {
		if _, ok := oldBy[nr.Scenario]; !ok {
			delta := Delta{Scenario: nr.Scenario, Status: StatusAdded, NewOK: nr.OK}
			if !nr.OK {
				d.NewFailures++ // failing and previously absent = newly failing
				if !th.AllowNewFailures {
					delta.Status = StatusRegressed
					delta.Reasons = append(delta.Reasons, fmt.Sprintf("added scenario fails verification: %s", nr.Err))
				}
			}
			d.add(delta)
		}
	}
	return d, nil
}

func (d *Diff) add(delta Delta) {
	d.Deltas = append(d.Deltas, delta)
	switch delta.Status {
	case StatusUnchanged:
		d.Unchanged++
	case StatusChanged:
		d.Changed++
	case StatusRegressed:
		d.Regressed++
		d.OK = false
	case StatusAdded:
		d.Added++
	case StatusRemoved:
		d.Removed++
	}
}

func suiteInfo(r harness.Report) SuiteInfo {
	return SuiteInfo{Suite: r.Suite, Quick: r.Quick, Scenarios: r.Scenarios, Failures: r.Failures}
}

func byName(r harness.Report) map[string]harness.Result {
	m := make(map[string]harness.Result, len(r.Results))
	for _, res := range r.Results {
		m[res.Scenario] = res
	}
	return m
}

// compareOne diffs one aligned scenario pair.
func compareOne(or, nr harness.Result, th Thresholds) Delta {
	delta := Delta{Scenario: or.Scenario, OldOK: or.OK, NewOK: nr.OK}

	// Same name, different experiment: the ε / strict dimensions are part
	// of a scenario's identity (Result echoes them for exactly this
	// check), so a silent redefinition always gates — comparing metrics
	// across different workloads would be meaningless either way.
	if or.EpsNum != nr.EpsNum || or.EpsDen != nr.EpsDen || or.Strict != nr.Strict ||
		or.Family != nr.Family || or.Model != nr.Model || or.Alg != nr.Alg {
		delta.Status = StatusRegressed
		delta.Reasons = append(delta.Reasons, fmt.Sprintf(
			"scenario redefined under the same name: %s/%s/%s eps %d/%d strict %v → %s/%s/%s eps %d/%d strict %v — rename it or regenerate the baseline",
			or.Model, or.Alg, or.Family, or.EpsNum, or.EpsDen, or.Strict,
			nr.Model, nr.Alg, nr.Family, nr.EpsNum, nr.EpsDen, nr.Strict))
		return delta
	}

	type metricPair struct {
		name     string
		old, new int64
		oldEnv   int64
		newEnv   int64
	}
	var metrics []metricPair
	// The enveloped (gateable) metrics come from the shared vocabulary the
	// trend chain uses too, so pairwise gating and N-report series can
	// never drift apart.
	oldEnv, newEnv := envelopedMetrics(or), envelopedMetrics(nr)
	for i := range oldEnv {
		metrics = append(metrics, metricPair{oldEnv[i].name, oldEnv[i].value, newEnv[i].value, oldEnv[i].env, newEnv[i].env})
	}
	metrics = append(metrics, []metricPair{
		{"messages", or.Messages, nr.Messages, 0, 0},
		// Un-enveloped metrics still participate in change detection, so a
		// drifted baseline is flagged (and TestBaselineCurrent forces a
		// regeneration) even when no ratio gates: the megaround account,
		// energy totals, the +Inf population, and the whole Section 1.1
		// APSP composition (its random-delay makespan is a headline claim).
		{"strict_rounds", or.StrictRounds, nr.StrictRounds, 0, 0},
		{"total_awake", or.TotalAwake, nr.TotalAwake, 0, 0},
		{"unreachable", int64(or.Unreachable), int64(nr.Unreachable), 0, 0},
		{"dilation", or.Dilation, nr.Dilation, 0, 0},
		{"apsp_congestion", or.Congestion, nr.Congestion, 0, 0},
		{"makespan_aligned", or.MakespanAligned, nr.MakespanAligned, 0, 0},
		{"makespan_random", or.MakespanRandom, nr.MakespanRandom, 0, 0},
		{"makespan_sequential", or.MakespanSequential, nr.MakespanSequential, 0, 0},
	}...)
	anyChange := false
	for _, m := range metrics {
		if m.old == 0 && m.new == 0 {
			continue
		}
		md := MetricDelta{Metric: m.name, Old: m.old, New: m.new, OldRatio: -1, NewRatio: -1}
		if m.oldEnv > 0 && m.newEnv > 0 {
			md.OldRatio = float64(m.old) / float64(m.oldEnv)
			md.NewRatio = float64(m.new) / float64(m.newEnv)
			if md.OldRatio > 0 {
				md.RelChange = (md.NewRatio - md.OldRatio) / md.OldRatio
			}
			if th.EnvelopeWorsen >= 0 && md.NewRatio > md.OldRatio*(1+th.EnvelopeWorsen) {
				md.Regressed = true
				delta.Reasons = append(delta.Reasons, fmt.Sprintf(
					"%s envelope ratio worsened %.3f → %.3f (%+.1f%%, threshold %+.0f%%)",
					m.name, md.OldRatio, md.NewRatio, 100*md.RelChange, 100*th.EnvelopeWorsen))
			}
		} else if m.old > 0 {
			md.RelChange = float64(m.new-m.old) / float64(m.old)
		}
		if m.old != m.new {
			anyChange = true
		}
		delta.Metrics = append(delta.Metrics, md)
	}
	comparePhases(&delta, or, nr, th, &anyChange)

	regressed := len(delta.Reasons) > 0
	if or.OK && !nr.OK {
		delta.Reasons = append(delta.Reasons, fmt.Sprintf("verification newly fails: %s", nr.Err))
		if !th.AllowNewFailures {
			regressed = true
		}
		anyChange = true
	}
	switch {
	case regressed:
		delta.Status = StatusRegressed
	case anyChange || or.DistHash != nr.DistHash:
		delta.Status = StatusChanged
	default:
		delta.Status = StatusUnchanged
	}
	return delta
}

// comparePhases diffs the per-phase round breakdowns of one aligned
// scenario pair. Each phase becomes a "phase:<key>" MetricDelta whose ratio
// is the phase's rounds against the scenario's rounds envelope — the
// per-phase ratios sum to the scenario's r(rounds), so a slowdown hiding
// inside one stage (a cutter that doubled while the barrier shrank) gates
// individually under Thresholds.PhaseWorsen even when the total stays flat.
func comparePhases(delta *Delta, or, nr harness.Result, th Thresholds, anyChange *bool) {
	if len(or.Phases) == 0 && len(nr.Phases) == 0 {
		return
	}
	newBy := make(map[string]core.PhaseStat, len(nr.Phases))
	for _, p := range nr.Phases {
		newBy[p.Phase] = p
	}
	oldSeen := make(map[string]bool, len(or.Phases))
	// Old-report phase order first, then phases new to this report — the
	// same stable alignment Compare uses for scenarios.
	for _, op := range or.Phases {
		oldSeen[op.Phase] = true
		comparePhase(delta, op, newBy[op.Phase], or, nr, th, anyChange)
	}
	for _, np := range nr.Phases {
		if !oldSeen[np.Phase] {
			comparePhase(delta, core.PhaseStat{Phase: np.Phase}, np, or, nr, th, anyChange)
		}
	}
}

func comparePhase(delta *Delta, op, np core.PhaseStat, or, nr harness.Result, th Thresholds, anyChange *bool) {
	if op.Rounds == 0 && np.Rounds == 0 {
		return
	}
	md := MetricDelta{Metric: "phase:" + op.Phase, Old: op.Rounds, New: np.Rounds, OldRatio: -1, NewRatio: -1}
	if or.Envelope.Rounds > 0 && nr.Envelope.Rounds > 0 {
		md.OldRatio = float64(op.Rounds) / float64(or.Envelope.Rounds)
		md.NewRatio = float64(np.Rounds) / float64(nr.Envelope.Rounds)
		if md.OldRatio > 0 {
			md.RelChange = (md.NewRatio - md.OldRatio) / md.OldRatio
		}
		minDelta := th.PhaseMinDelta
		if minDelta < 1 {
			minDelta = 1
		}
		if th.PhaseWorsen >= 0 && md.NewRatio > md.OldRatio*(1+th.PhaseWorsen) && np.Rounds-op.Rounds >= minDelta {
			md.Regressed = true
			delta.Reasons = append(delta.Reasons, fmt.Sprintf(
				"phase %q round share worsened %.4f → %.4f of the rounds envelope (%d → %d rounds, threshold %+.0f%% and ≥%d rounds)",
				op.Phase, md.OldRatio, md.NewRatio, op.Rounds, np.Rounds, 100*th.PhaseWorsen, minDelta))
		}
	} else if op.Rounds > 0 {
		md.RelChange = float64(np.Rounds-op.Rounds) / float64(op.Rounds)
	}
	if op.Rounds != np.Rounds {
		*anyChange = true
	}
	delta.Metrics = append(delta.Metrics, md)
}
