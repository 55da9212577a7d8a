package dsssp

import (
	"errors"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

func TestSSSPQuickstart(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 5)
	g.SortAdj()
	res, err := SSSP(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 3, 8}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("dist[%d]=%d, want %d", v, res.Dist[v], d)
		}
	}
	if res.SubproblemsMax == 0 {
		t.Fatal("missing subproblem stats")
	}
}

func TestCSSPBothModelsAgree(t *testing.T) {
	g := graph.RandomConnected(12, 8, graph.UniformWeights(4, 3), 3)
	sources := map[NodeID]int64{0: 0, 6: 1}
	a, err := CSSP(g, sources, &Options{Model: ModelCongest})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CSSP(g, sources, &Options{Model: ModelSleeping})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatalf("node %d: %d vs %d", v, a.Dist[v], b.Dist[v])
		}
	}
	if b.Metrics.MaxAwake*2 > b.Metrics.Rounds {
		t.Fatalf("sleeping model energy %d not below half of %d rounds", b.Metrics.MaxAwake, b.Metrics.Rounds)
	}
}

func TestBFSBothModels(t *testing.T) {
	g := graph.Grid2D(5, 5, graph.UnitWeights)
	want := graph.BFSDist(g, 0)
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		res, err := BFS(g, map[NodeID]bool{0: true}, 8, &Options{Model: m})
		if err != nil {
			t.Fatalf("model %d: %v", m, err)
		}
		for v := range want {
			w := want[v]
			if w > 8 {
				w = Inf
			}
			if res.Dist[v] != w {
				t.Fatalf("model %d node %d: got %d want %d", m, v, res.Dist[v], w)
			}
		}
	}
}

func TestAPSPEndToEnd(t *testing.T) {
	g := graph.RandomConnected(16, 16, graph.UniformWeights(5, 9), 9)
	res, err := APSP(g, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.N(); s++ {
		want := graph.Dijkstra(g, NodeID(s))
		for v := range want {
			if res.Dist[s][v] != want[v] {
				t.Fatalf("dist[%d][%d]=%d, want %d", s, v, res.Dist[s][v], want[v])
			}
		}
	}
	c := res.Composition
	if c.MakespanRandom > c.MakespanSequential {
		t.Fatalf("random-delay makespan %d worse than sequential %d", c.MakespanRandom, c.MakespanSequential)
	}
	if c.Congestion <= 0 || c.Dilation <= 0 {
		t.Fatalf("bad composition %+v", c)
	}
	if c.Spans != nil {
		t.Fatalf("span ledger recorded without Options.RecordPhases: %+v", c.Spans)
	}
}

// TestAPSPRecordPhases: the public APSP threads each instance's span
// ledger into the composition, merged over all sources, with the summed
// message counters conserving against the merged instances.
func TestAPSPRecordPhases(t *testing.T) {
	g := graph.RandomConnected(12, 12, graph.UniformWeights(4, 9), 9)
	res, err := APSP(g, &Options{RecordPhases: true, Workers: 1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Composition.Spans
	if len(spans) == 0 {
		t.Fatal("Options.RecordPhases produced no merged span ledger")
	}
	var msgs int64
	for _, s := range spans {
		msgs += s.Messages
	}
	var want int64
	for src := 0; src < g.N(); src++ {
		r, err := SSSP(g, NodeID(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		want += r.Metrics.Messages
	}
	if msgs != want {
		t.Fatalf("merged span messages %d != summed instance messages %d", msgs, want)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	g.SortAdj()
	if _, err := CSSP(g, map[NodeID]int64{0: 0}, &Options{Model: Model(99)}); err == nil {
		t.Fatal("want error")
	}
}

// TestComputeErrorTyped pins the one typed error every entry point returns
// for well-formed input it cannot process — through sched's %w wrapping on
// APSP too — with each layer's message text unchanged.
func TestComputeErrorTyped(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights)
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"eps", func() error {
			_, err := SSSP(g, 0, &Options{EpsNum: 3, EpsDen: 2})
			return err
		}, "core: ε must be in (0,1), got 3/2"},
		{"max-rounds", func() error {
			_, err := SSSP(g, 0, &Options{MaxRounds: 3})
			return err
		}, "simnet: exceeded MaxRounds=3"},
		{"apsp-max-rounds", func() error {
			_, err := APSP(g, &Options{MaxRounds: 3, Workers: 1}, 1)
			return err
		}, "sched: SSSP from 0: simnet: exceeded MaxRounds=3"},
		{"strict-sleeping", func() error {
			_, err := SSSP(g, 0, &Options{Model: ModelSleeping, StrictCongest: true})
			return err
		}, "dsssp: Options.StrictCongest applies to ModelCongest only"},
		{"strict-bfs", func() error {
			_, err := BFS(g, map[NodeID]bool{0: true}, 4, &Options{StrictCongest: true})
			return err
		}, "dsssp: Options.StrictCongest is supported for SSSP/CSSP/APSP, not BFS"},
	}
	for _, tc := range cases {
		err := tc.run()
		var ce *ComputeError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v (%T) is not a *ComputeError", tc.name, err, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want prefix %q", tc.name, err, tc.want)
		}
	}
}
