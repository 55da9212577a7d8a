package simnet

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dsssp/internal/graph"
)

// parallelWorkerCounts is the worker matrix the differential tests sweep:
// 1 (the sequential fast path a parallel config degrades to), a couple of
// genuine pool sizes, and whatever GOMAXPROCS happens to be on the host.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// forceTinyBatches drops the pool's fan-out threshold to 1 for the duration
// of a test, so even the n≤23 randomized graphs actually cross the
// concurrent resume path instead of staying on the inline fallback.
func forceTinyBatches(t *testing.T) {
	t.Helper()
	testMinBatch = 1
	t.Cleanup(func() { testMinBatch = 0 })
}

// spanScriptProgram wraps scriptProgram with pseudo-random span open/close
// activity, so the differential tests cover ledger interning, per-span
// attribution, and first-open ordering — the state the parallel engine must
// reproduce byte-identically despite interning concurrently.
func spanScriptProgram(seed int64, model Model, steps int) Program {
	inner := scriptProgram(seed, model, steps)
	return func(c *Ctx) {
		x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(c.ID()))
		depth := 0
		for s := 0; s < 3; s++ {
			x = splitmix64(x)
			switch x % 3 {
			case 0:
				c.OpenSpan(fmt.Sprintf("phase%d", x>>8%5), depth)
				depth++
			case 1:
				if depth > 0 {
					c.CloseSpan()
					depth--
				}
			case 2:
				c.Next()
			}
		}
		inner(c)
	}
}

// TestParallelMatchesOracle runs the randomized differential corpus through
// the parallel engine at several worker counts, asserting exactly equal
// Metrics, Outputs, Trace, and error text against the frozen oracle
// scheduler — the same bar the sequential engine is held to — over both
// models and with strict-CONGEST enforcement on.
func TestParallelMatchesOracle(t *testing.T) {
	forceTinyBatches(t)
	for seed := int64(0); seed < 40; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			for _, strict := range []bool{false, true} {
				n := int(splitmix64(uint64(seed))%22) + 2
				g := equivGraph(seed, n)
				cfg := Config{Model: model, RecordTrace: true, StrictCongest: strict, MaxRounds: 1 << 20}
				p := scriptProgram(seed, model, 12)

				want, werr := New(g, cfg).runOracle(p)
				for _, w := range parallelWorkerCounts() {
					wcfg := cfg
					wcfg.Workers = w
					got, gerr := New(g, wcfg).Run(p)

					name := fmt.Sprintf("seed=%d model=%s strict=%v n=%d workers=%d", seed, model, strict, n, w)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s: error divergence: oracle=%v parallel=%v", name, werr, gerr)
					}
					if werr != nil {
						if werr.Error() != gerr.Error() {
							t.Fatalf("%s: error text divergence:\noracle:   %v\nparallel: %v", name, werr, gerr)
						}
						continue
					}
					if !reflect.DeepEqual(want.Metrics, got.Metrics) {
						t.Fatalf("%s: metrics divergence:\noracle:   %+v\nparallel: %+v", name, want.Metrics, got.Metrics)
					}
					if !reflect.DeepEqual(want.Outputs, got.Outputs) {
						t.Fatalf("%s: outputs divergence", name)
					}
					if !reflect.DeepEqual(want.Trace, got.Trace) {
						t.Fatalf("%s: trace divergence (oracle %d entries, parallel %d)", name, len(want.Trace), len(got.Trace))
					}
				}
			}
		}
	}
}

// TestParallelSpanLedgerMatchesSequential pins the parallel span ledger —
// row order included — to the sequential engine's, with message-bit
// measurement on so per-span MaxMessageBits attribution is covered too.
func TestParallelSpanLedgerMatchesSequential(t *testing.T) {
	forceTinyBatches(t)
	bits := func(tag uint64, body any) int64 { return int64((tag+body.(uint64))%512) + 1 }
	for seed := int64(0); seed < 30; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			n := int(splitmix64(uint64(seed)+77)%22) + 2
			g := equivGraph(seed, n)
			cfg := Config{Model: model, RecordTrace: true, RecordSpans: true, MessageBits: bits, MaxRounds: 1 << 20}
			p := spanScriptProgram(seed, model, 10)

			want, werr := New(g, cfg).Run(p)
			for _, w := range parallelWorkerCounts() {
				wcfg := cfg
				wcfg.Workers = w
				got, gerr := New(g, wcfg).Run(p)

				name := fmt.Sprintf("seed=%d model=%s n=%d workers=%d", seed, model, n, w)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: error divergence: sequential=%v parallel=%v", name, werr, gerr)
				}
				if werr != nil {
					if werr.Error() != gerr.Error() {
						t.Fatalf("%s: error text divergence:\nsequential: %v\nparallel:   %v", name, werr, gerr)
					}
					continue
				}
				if !reflect.DeepEqual(want.Metrics.Spans, got.Metrics.Spans) {
					t.Fatalf("%s: span ledger divergence:\nsequential: %+v\nparallel:   %+v", name, want.Metrics.Spans, got.Metrics.Spans)
				}
				if !reflect.DeepEqual(want.Metrics, got.Metrics) {
					t.Fatalf("%s: metrics divergence:\nsequential: %+v\nparallel:   %+v", name, want.Metrics, got.Metrics)
				}
				if !reflect.DeepEqual(want.Outputs, got.Outputs) {
					t.Fatalf("%s: outputs divergence", name)
				}
				if !reflect.DeepEqual(want.Trace, got.Trace) {
					t.Fatalf("%s: trace divergence", name)
				}
			}
		}
	}
}

// TestParallelErrorPaths pins the scheduler-visible error paths (deadlock,
// MaxRounds, node panic, strict-CONGEST overload) to the sequential error
// text at every worker count — in particular that the lowest-ID panicking
// node wins error selection regardless of which worker hit it first.
func TestParallelErrorPaths(t *testing.T) {
	forceTinyBatches(t)
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
			name: "panic-lowest-id-wins",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				// Every node panics in round 0; the reported error must name
				// node 0 — the one the sequential resume order hits first.
				panic(fmt.Sprintf("boom from %d", c.ID()))
			},
		},
		{
			name: "strict-congest",
			cfg:  Config{Model: Congest, StrictCongest: true},
			prog: func(c *Ctx) {
				c.Send(0, uint64(1))
				c.Send(0, uint64(2))
				c.Next()
			},
		},
	}
	for _, tc := range cases {
		g := graph.Path(40, graph.UnitWeights)
		_, werr := New(g, tc.cfg).Run(tc.prog)
		if werr == nil {
			t.Fatalf("%s: expected a sequential error", tc.name)
		}
		for _, w := range parallelWorkerCounts() {
			cfg := tc.cfg
			cfg.Workers = w
			_, gerr := New(g, cfg).Run(tc.prog)
			if gerr == nil {
				t.Fatalf("%s workers=%d: expected an error", tc.name, w)
			}
			if werr.Error() != gerr.Error() {
				t.Fatalf("%s workers=%d: error text divergence:\nsequential: %v\nparallel:   %v", tc.name, w, werr, gerr)
			}
		}
	}
}

// floodProgram is an O(total work) = O(m) broadcast: node 0 seeds a token,
// every other node parks until one arrives, forwards once, and halts. Wide
// graphs produce full-width batches (the pool's saturation case); the path
// graph produces n sequential singleton rounds (the pool's degenerate
// case) while still walking the 10^5-node memory layout end to end.
func floodProgram(c *Ctx) {
	if c.ID() == 0 {
		for i := 0; i < c.Degree(); i++ {
			c.Send(i, uint64(1))
		}
		c.Next()
		c.SetOutput(int64(0))
		return
	}
	in := c.WaitMessage(-1)
	hops := in[0].Msg.(uint64)
	for i := 0; i < c.Degree(); i++ {
		c.Send(i, hops+1)
	}
	c.Next()
	c.SetOutput(int64(hops))
}

// TestParallelLargeNSmoke runs the n=10^5 memory-engineering targets (path,
// random, star) through sequential and 4-worker engines and asserts
// identical results. Opt-out with -short: the point of the run is the
// large allocation footprint, which is exactly what a quick test pass
// wants to skip.
func TestParallelLargeNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke test skipped with -short")
	}
	const n = 100_000
	graphs := map[string]*graph.Graph{
		"path":   graph.Path(n, graph.UnitWeights),
		"random": graph.RandomConnected(n, 2*n, graph.UnitWeights, 7),
		"star":   graph.Star(n, graph.UnitWeights),
	}
	for name, g := range graphs {
		cfg := Config{Model: Congest, MaxRounds: 1 << 20}
		want, werr := New(g, cfg).Run(floodProgram)
		if werr != nil {
			t.Fatalf("%s: sequential run failed: %v", name, werr)
		}
		cfg.Workers = 4
		got, gerr := New(g, cfg).Run(floodProgram)
		if gerr != nil {
			t.Fatalf("%s: parallel run failed: %v", name, gerr)
		}
		if !reflect.DeepEqual(want.Metrics, got.Metrics) {
			t.Fatalf("%s: metrics divergence at n=%d:\nsequential: %+v\nparallel:   %+v", name, n, &want.Metrics, &got.Metrics)
		}
		if !reflect.DeepEqual(want.Outputs, got.Outputs) {
			t.Fatalf("%s: outputs divergence at n=%d", name, n)
		}
	}
}
