package core

import (
	"reflect"
	"testing"

	"dsssp/internal/simnet"
)

// TestPhasesFromSpans pins the aggregation: depths merge into one row per
// phase (pipeline-ordered), RoundsByDepth keeps the per-depth split, refs
// come from the core registry, and the root span sorts first.
func TestPhasesFromSpans(t *testing.T) {
	spans := []simnet.SpanMetrics{
		{Name: "run", Depth: 0, Rounds: 2, AwakeRounds: 3},
		{Name: "cutter", Depth: 0, Rounds: 40, Messages: 9, AwakeRounds: 12, MaxMessageBits: 33},
		{Name: "participate", Depth: 0, Rounds: 1, Messages: 4, AwakeRounds: 3},
		{Name: "cutter", Depth: 1, Rounds: 20, Messages: 5, AwakeRounds: 6, MaxMessageBits: 35},
		{Name: "participate", Depth: 1, Rounds: 1, Messages: 2, AwakeRounds: 2},
	}
	got := PhasesFromSpans(spans)
	wantOrder := []string{"run", "participate", "cutter"}
	if len(got) != len(wantOrder) {
		t.Fatalf("got %d phases, want %d: %+v", len(got), len(wantOrder), got)
	}
	for i, name := range wantOrder {
		if got[i].Phase != name {
			t.Fatalf("phase %d = %q, want %q (pipeline order)", i, got[i].Phase, name)
		}
	}
	cutter := got[2]
	want := PhaseStat{
		Phase: "cutter", Ref: "Lemma 2.1", Rounds: 60, Messages: 14,
		AwakeRounds: 18, MaxMessageBits: 35, RoundsByDepth: "40/20",
	}
	if !reflect.DeepEqual(cutter, want) {
		t.Fatalf("cutter = %+v, want %+v", cutter, want)
	}
	if got[0].RoundsByDepth != "" {
		t.Errorf("run phase at a single depth must omit the depth split, got %q", got[0].RoundsByDepth)
	}
	if PhasesFromSpans(nil) != nil {
		t.Error("empty ledger must aggregate to nil")
	}
}
