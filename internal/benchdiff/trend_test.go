package benchdiff

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dsssp/internal/core"
	"dsssp/internal/harness"
)

func phased(name string, rounds, roundsEnv int64, phases ...core.PhaseStat) harness.Result {
	r := res(name, rounds, roundsEnv)
	r.Phases = phases
	return r
}

func TestChainSeries(t *testing.T) {
	reps := []harness.Report{
		report(
			phased("a", 1000, 10000, core.PhaseStat{Phase: "decompose", Rounds: 800}),
			res("b", 2000, 10000),
		),
		report(
			phased("a", 1100, 10000, core.PhaseStat{Phase: "decompose", Rounds: 900}),
			res("b", 2000, 10000),
		),
		report(
			phased("a", 1210, 10000, core.PhaseStat{Phase: "decompose", Rounds: 1000}),
			res("c", 500, 10000), // b removed, c added
		),
	}
	labels := []string{"t0", "t1", "t2"}
	tr, err := Chain(reps, labels, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != TrendSchema || tr.Suite != "default" || !tr.Quick {
		t.Fatalf("header: %+v", tr)
	}
	if len(tr.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(tr.Steps))
	}

	find := func(scn string) ScenarioTrend {
		for _, st := range tr.Scenarios {
			if st.Scenario == scn {
				return st
			}
		}
		t.Fatalf("scenario %q missing from trend", scn)
		panic("unreachable")
	}
	a := find("a")
	if want := []bool{true, true, true}; !boolsEqual(a.Present, want) {
		t.Fatalf("a.Present = %v", a.Present)
	}
	b := find("b")
	if want := []bool{true, true, false}; !boolsEqual(b.Present, want) {
		t.Fatalf("b.Present = %v", b.Present)
	}

	// The chain's ratio series must be exactly what pairwise Compare
	// reports for the same metric — the two views share one vocabulary.
	var rounds *TrendSeries
	for i := range a.Metrics {
		if a.Metrics[i].Metric == "rounds" {
			rounds = &a.Metrics[i]
		}
	}
	if rounds == nil {
		t.Fatal("no rounds series for scenario a")
	}
	for i := 0; i+1 < len(reps); i++ {
		d, err := Compare(reps[i], reps[i+1], DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range d.Deltas {
			if delta.Scenario != "a" {
				continue
			}
			for _, m := range delta.Metrics {
				if m.Metric != "rounds" {
					continue
				}
				if rounds.Ratios[i] != m.OldRatio || rounds.Ratios[i+1] != m.NewRatio {
					t.Fatalf("step %d: chain ratios (%v, %v) disagree with Compare (%v, %v)",
						i, rounds.Ratios[i], rounds.Ratios[i+1], m.OldRatio, m.NewRatio)
				}
			}
		}
	}

	// Per-phase series: values are the phase's rounds, ratios against the
	// scenario rounds envelope (the quantity PhaseWorsen gates).
	if len(a.Phases) != 1 || a.Phases[0].Metric != "phase:decompose" {
		t.Fatalf("phases = %+v", a.Phases)
	}
	ph := a.Phases[0]
	wantVals := []int64{800, 900, 1000}
	for i, v := range wantVals {
		if ph.Values[i] != v {
			t.Fatalf("phase values = %v, want %v", ph.Values, wantVals)
		}
		if want := float64(v) / 10000; ph.Ratios[i] != want {
			t.Fatalf("phase ratio[%d] = %v, want %v", i, ph.Ratios[i], want)
		}
	}

	// Absent report slots read as not-present with sentinel ratios.
	var bRounds TrendSeries
	for _, s := range b.Metrics {
		if s.Metric == "rounds" {
			bRounds = s
		}
	}
	if bRounds.Ratios[2] != -1 || bRounds.Values[2] != 0 {
		t.Fatalf("removed scenario should have sentinel point, got %v / %v", bRounds.Values, bRounds.Ratios)
	}
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChainGatesSteps(t *testing.T) {
	reps := []harness.Report{
		report(res("a", 1000, 10000)),
		report(res("a", 1050, 10000)), // +5%: within gate
		report(res("a", 2000, 10000)), // +90%: regression
	}
	tr, err := Chain(reps, nil, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if tr.OK {
		t.Fatal("chain with a regressing step must not be OK")
	}
	if !tr.Steps[0].OK || tr.Steps[1].OK || tr.Steps[1].Regressed != 1 {
		t.Fatalf("steps = %+v", tr.Steps)
	}
	// nil labels default to r0..rN-1.
	if tr.Labels[0] != "r0" || tr.Labels[2] != "r2" {
		t.Fatalf("labels = %v", tr.Labels)
	}
}

func TestChainErrors(t *testing.T) {
	if _, err := Chain([]harness.Report{report(res("a", 1, 10))}, nil, DefaultThresholds()); err == nil {
		t.Fatal("single report must error")
	}
	full := harness.BuildReport("default", false, []harness.Result{res("a", 1, 10)})
	if _, err := Chain([]harness.Report{report(res("a", 1, 10)), full}, nil, DefaultThresholds()); err == nil {
		t.Fatal("mixed quick/full chain must error")
	}
	if _, err := Chain([]harness.Report{report(), report()}, []string{"only-one"}, DefaultThresholds()); err == nil {
		t.Fatal("label/report count mismatch must error")
	}
}

func TestTrendMarkdownAndJSON(t *testing.T) {
	reps := []harness.Report{
		report(phased("a", 1000, 10000, core.PhaseStat{Phase: "decompose", Rounds: 800})),
		report(phased("a", 1100, 10000, core.PhaseStat{Phase: "decompose", Rounds: 900})),
	}
	tr, err := Chain(reps, []string{"base", "head"}, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := WriteTrendMarkdown(&md, tr); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"# Bench trends",
		"base → head",
		"| a | rounds | 0.100 | 0.110 |",
		"| a | phase:decompose | 0.080 | 0.090 |",
		"Verdict: **PASS**",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	// The trend must survive a JSON round trip.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trend
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != TrendSchema || len(back.Scenarios) != 1 || len(back.Scenarios[0].Phases) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
