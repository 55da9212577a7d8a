package simnet

import (
	"fmt"
	"reflect"
	"testing"

	"dsssp/internal/graph"
)

// splitmix64 is the step function driving the random node scripts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scriptProgram returns a deterministic pseudo-random Program: every node
// derives an op stream (sends, Next, SleepUntil jumps near and far,
// WaitMessage with and without deadline, early halts) from (seed, id) and
// folds everything it receives — tags included — into a hash it outputs. The stream reacts to
// received payloads, so scheduling divergences between engines cascade into
// different outputs, metrics, and traces.
func scriptProgram(seed int64, model Model, steps int) Program {
	return func(c *Ctx) {
		x := splitmix64(uint64(seed) ^ (uint64(c.ID())+1)*0x9e3779b97f4a7c15)
		var h uint64 = 1469598103934665603
		mix := func(v uint64) { h ^= v; h *= 1099511628211 }
		consume := func(in []Inbound) {
			for _, m := range in {
				mix(uint64(m.From))
				mix(uint64(m.Round))
				mix(m.Tag)
				mix(m.Msg.(uint64))
			}
		}
		for s := 0; s < steps; s++ {
			x = splitmix64(x)
			if c.Degree() > 0 && x%3 != 0 {
				k := int(x>>8)%2 + 1
				for j := 0; j < k; j++ {
					c.SendTag(int(x>>uint(16+4*j))%c.Degree(), x>>61, h^x)
				}
			}
			x = splitmix64(x)
			switch x % 7 {
			case 0, 1, 2:
				consume(c.Next())
			case 3:
				consume(c.SleepUntil(c.Round() + 1 + int64(x>>5)%4))
			case 4:
				// Far-future jump: exercises the heap fallback behind the
				// bucket window.
				consume(c.SleepUntil(c.Round() + 1 + int64(x>>5)%3000))
			case 5:
				if model == Congest {
					consume(c.WaitMessage(c.Round() + 1 + int64(x>>5)%9))
				} else {
					consume(c.Next())
				}
			case 6:
				if x>>40%5 == 0 {
					c.SetOutput(h)
					return // early halt
				}
				consume(c.Next())
			}
		}
		c.SetOutput(h ^ uint64(c.Round()))
	}
}

func equivGraph(seed int64, n int) *graph.Graph {
	switch seed % 4 {
	case 0:
		return graph.Path(n, graph.UnitWeights)
	case 1:
		return graph.Cycle(n, graph.UnitWeights)
	case 2:
		return graph.Star(n, graph.UnitWeights)
	default:
		return graph.RandomConnected(n, 2*n, graph.UnitWeights, seed)
	}
}

// TestSchedulerMatchesOracle runs randomized programs through both the
// production scheduler (bucket queue, batched handshakes, pooled buffers)
// and the frozen pre-rewrite oracle scheduler, asserting exactly equal
// Metrics, Outputs, Trace, and error text in both models.
func TestSchedulerMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			n := int(splitmix64(uint64(seed))%22) + 2
			g := equivGraph(seed, n)
			cfg := Config{Model: model, RecordTrace: true, MaxRounds: 1 << 20}
			p := scriptProgram(seed, model, 12)

			want, werr := New(g, cfg).runOracle(p)
			got, gerr := New(g, cfg).Run(p)

			name := fmt.Sprintf("seed=%d model=%s n=%d", seed, model, n)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: error divergence: oracle=%v new=%v", name, werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("%s: error text divergence:\noracle: %v\nnew:    %v", name, werr, gerr)
				}
				continue
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Fatalf("%s: metrics divergence:\noracle: %+v\nnew:    %+v", name, want.Metrics, got.Metrics)
			}
			if !reflect.DeepEqual(want.Outputs, got.Outputs) {
				t.Fatalf("%s: outputs divergence:\noracle: %v\nnew:    %v", name, want.Outputs, got.Outputs)
			}
			if !reflect.DeepEqual(want.Trace, got.Trace) {
				t.Fatalf("%s: trace divergence (oracle %d entries, new %d)", name, len(want.Trace), len(got.Trace))
			}
		}
	}
}

// TestSchedulerMatchesOracleOnErrors pins the scheduler-visible error paths
// (deadlock, MaxRounds, node panic) to the oracle's exact behavior.
func TestSchedulerMatchesOracleOnErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		prog Program
	}{
		{
			name: "deadlock",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				if c.ID() == 0 {
					return
				}
				c.WaitMessage(-1)
			},
		},
		{
			name: "maxrounds",
			cfg:  Config{Model: Sleeping, MaxRounds: 64},
			prog: func(c *Ctx) { c.SleepUntil(1000) },
		},
		{
			name: "panic",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				if c.ID() == 1 {
					panic("boom")
				}
				c.SleepUntil(50)
			},
		},
	}
	for _, tc := range cases {
		g := graph.Path(4, graph.UnitWeights)
		_, werr := New(g, tc.cfg).runOracle(tc.prog)
		_, gerr := New(g, tc.cfg).Run(tc.prog)
		if werr == nil || gerr == nil {
			t.Fatalf("%s: expected errors, oracle=%v new=%v", tc.name, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: error text divergence:\noracle: %v\nnew:    %v", tc.name, werr, gerr)
		}
	}
}
