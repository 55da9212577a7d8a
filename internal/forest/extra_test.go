package forest

import (
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// Dumbbell: two dense regions joined by a long bridge — stressing both
// fast clique merging and long-chain merging.
func TestForestDumbbell(t *testing.T) {
	g := graph.Dumbbell(8, 12, graph.UnitWeights)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

// Grid at moderate scale in the sleeping model.
func TestForestGridSleeping(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	rs, met := runForest(t, g, simnet.Sleeping)
	verifyForest(t, g, rs)
	if met.LostMessages != 0 {
		t.Fatalf("lost %d messages", met.LostMessages)
	}
}

// A larger stress in CONGEST: 512 nodes, denser graph.
func TestForestLargeRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("large forest stress")
	}
	g := graph.RandomConnected(512, 1024, graph.UnitWeights, 21)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

// Trees from two different SizeBound values must both be correct (budgets
// only change the schedule, not the result).
func TestForestSizeBoundSlack(t *testing.T) {
	g := graph.Cycle(12, graph.UnitWeights)
	for _, bound := range []int64{12, 40} {
		eng := simnet.New(g, simnet.Config{Model: simnet.Congest})
		res, err := eng.Run(func(c *simnet.Ctx) {
			mb := proto.NewMailbox(c)
			r := Build(mb, Params{Tag: 1, StartRound: 0, SizeBound: bound})
			c.SetOutput(r)
		})
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		rs := make([]Result, g.N())
		for i, v := range res.Outputs {
			rs[i] = v.(Result)
		}
		verifyForest(t, g, rs)
	}
}

// Determinism across runs: the trees and the engine trace — the order of
// every node's sends within a round included — must repeat exactly.
func TestForestDeterministic(t *testing.T) {
	g := graph.RandomConnected(48, 64, graph.UnitWeights, 5)
	run := func() ([]Result, *simnet.Result) {
		eng := simnet.New(g, simnet.Config{Model: simnet.Congest, RecordTrace: true})
		res, err := eng.Run(func(c *simnet.Ctx) {
			c.SetOutput(Build(proto.NewMailbox(c), Params{Tag: 1, StartRound: 0, SizeBound: int64(c.N())}))
		})
		if err != nil {
			t.Fatalf("forest run failed: %v", err)
		}
		rs := make([]Result, g.N())
		for i, v := range res.Outputs {
			rs[i] = v.(Result)
		}
		return rs, res
	}
	a, ra := run()
	b, rb := run()
	verifyForest(t, g, a)
	for v := range a {
		ta, tb := a[v].Tree, b[v].Tree
		if a[v].CompID != b[v].CompID || ta.Depth != tb.Depth || ta.Parent != tb.Parent ||
			!slices.Equal(ta.Children, tb.Children) {
			t.Fatalf("node %d differs across runs: %+v vs %+v", v, a[v], b[v])
		}
	}
	if ra.Metrics.Messages != rb.Metrics.Messages {
		t.Fatalf("message counts differ: %d vs %d", ra.Metrics.Messages, rb.Metrics.Messages)
	}
	if int64(len(ra.Trace)) != ra.Metrics.Messages {
		t.Fatalf("trace has %d entries for %d messages", len(ra.Trace), ra.Metrics.Messages)
	}
	if !slices.Equal(ra.Trace, rb.Trace) {
		t.Fatal("engine traces differ across runs")
	}
}
