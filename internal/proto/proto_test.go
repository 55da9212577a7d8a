package proto

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// testTree builds each node's Tree view for the rooted tree given by parent
// node IDs (parent[root] == root). The tree edges must exist in g.
func testTree(g *graph.Graph, parent []graph.NodeID) func(c *simnet.Ctx) Tree {
	depth := make([]int64, g.N())
	for v := range parent {
		d := int64(0)
		for u := graph.NodeID(v); parent[u] != u; u = parent[u] {
			d++
		}
		depth[v] = d
	}
	var root graph.NodeID
	for v := range parent {
		if parent[v] == graph.NodeID(v) {
			root = graph.NodeID(v)
		}
	}
	return func(c *simnet.Ctx) Tree {
		t := Tree{InTree: true, Root: root, Parent: -1, Depth: depth[c.ID()]}
		for i := 0; i < c.Degree(); i++ {
			nb := c.NeighborID(i)
			if parent[c.ID()] == nb && c.ID() != root {
				t.Parent = i
			} else if parent[nb] == c.ID() {
				t.Children = append(t.Children, i)
			}
		}
		return t
	}
}

func pathParents(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := 1; i < n; i++ {
		p[i] = graph.NodeID(i - 1)
	}
	return p
}

func sum(a, b any) any { return a.(int64) + b.(int64) }

func TestAggregateUpRootOnly(t *testing.T) {
	g := graph.Star(5, graph.UnitWeights)
	parent := []graph.NodeID{0, 0, 0, 0, 0}
	tv := testTree(g, parent)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		agg, isRoot := AggregateUp(m, tv(c), 3, int64(1), sum, -1)
		if isRoot {
			c.SetOutput(agg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int64) != 5 {
		t.Fatalf("root aggregate %v, want 5", res.Outputs[0])
	}
	for v := 1; v < 5; v++ {
		if res.Outputs[v] != nil {
			t.Fatalf("non-root %d has output %v", v, res.Outputs[v])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	tv := testTree(g, pathParents(6))
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		// Nodes become "done" at very different times.
		m.SleepUntilAtLeast(int64(c.ID()) * 13)
		start := Barrier(m, tv(c), 20, 6, -1)
		if c.Round() != start {
			t.Errorf("node %d resumed at %d, want %d", c.ID(), c.Round(), start)
		}
		c.SetOutput(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Outputs[0].(int64)
	for v, out := range res.Outputs {
		if out.(int64) != first {
			t.Fatalf("node %d start %v != %d", v, out, first)
		}
	}
	if first < 5*13 {
		t.Fatalf("start %d before the slowest node was done", first)
	}
}

func TestSweepUpDownSleeping(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights)
	tv := testTree(g, pathParents(8))
	const windowStart, depthBound = 5, 8
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := tv(c)
		agg, isRoot := SweepUp(m, tr, 30, windowStart, depthBound, int64(1), sum)
		var rootVal any
		if isRoot {
			if agg.(int64) != 8 {
				t.Errorf("root sweep aggregate %v, want 8", agg)
			}
			rootVal = int64(100)
		}
		down := SweepDown(m, tr, 31, windowStart+depthBound+1, rootVal)
		c.SetOutput(down)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 100 {
			t.Fatalf("node %d got %v from sweep down", v, out)
		}
	}
	// Energy: initial wake + at most 2 awake rounds per sweep (+1 slack).
	if res.Metrics.MaxAwake > 6 {
		t.Fatalf("max awake %d, want <= 6", res.Metrics.MaxAwake)
	}
	if res.Metrics.LostMessages != 0 {
		t.Fatalf("sweeps lost %d messages", res.Metrics.LostMessages)
	}
}

func TestMailboxBuffersOutOfPhaseMessages(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		switch c.ID() {
		case 0:
			m.Send(0, 77, "early") // a message for a phase node 1 enters later
			m.Next()
		case 1:
			// First handle an unrelated phase; the tag-77 message must be
			// buffered, not lost.
			if got := m.WaitTag(55, 10); len(got) != 0 {
				t.Errorf("unexpected tag-55 messages: %v", got)
			}
			msgs := m.Take(77)
			if len(msgs) != 1 || msgs[0].Body.(string) != "early" {
				t.Errorf("buffered message missing: %v", msgs)
			}
			c.SetOutput(len(msgs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(int) != 1 {
		t.Fatal("tag buffering failed")
	}
}

func TestExchange(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		got := Exchange(m, 5, func(i int) (any, bool) { return int64(c.ID()), true })
		total := int64(0)
		for _, msg := range got {
			total += msg.Body.(int64)
		}
		c.SetOutput(total)
	})
	if err != nil {
		t.Fatal(err)
	}
	// On a cycle each node hears both neighbors.
	want := []int64{1 + 3, 0 + 2, 1 + 3, 0 + 2}
	for v, out := range res.Outputs {
		if out.(int64) != want[v] {
			t.Fatalf("node %d sum %v, want %d", v, out, want[v])
		}
	}
}

func TestWaitTagCountTimeout(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		if c.ID() == 0 {
			_, ok := m.WaitTagCount(9, 2, 15)
			if ok {
				t.Error("expected timeout")
			}
			if c.Round() < 15 {
				t.Errorf("returned early at %d", c.Round())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceToOverrunPanics(t *testing.T) {
	g := graph.Path(1, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		m.SleepUntil(10)
		m.AdvanceTo(5)
	})
	if err == nil {
		t.Fatal("want overrun panic surfaced as run error")
	}
}

func TestSweepSingleton(t *testing.T) {
	// A single-node tree: root is also a leaf.
	g := graph.New(1)
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := Tree{InTree: true, Root: 0, Parent: -1}
		agg, isRoot := SweepUp(m, tr, 1, 2, 3, int64(7), sum)
		if !isRoot || agg.(int64) != 7 {
			t.Errorf("singleton sweep: %v %v", agg, isRoot)
		}
		v := SweepDown(m, tr, 2, 7, int64(9))
		c.SetOutput(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int64) != 9 {
		t.Fatalf("got %v", res.Outputs[0])
	}
}

// bodies returns the int64 bodies of msgs.
func bodies(msgs []Msg) []int64 {
	var out []int64
	for _, m := range msgs {
		out = append(out, m.Body.(int64))
	}
	return out
}

// TestMailboxSlotReuse pins the slot buffers' ownership rule: tags
// interleave across rounds and drifted phases, a slice handed out by Take
// survives a Take of another tag in the same wake, and a drained tag's slot
// is reused when new tags arrive.
func TestMailboxSlotReuse(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		if c.ID() == 0 {
			m.Send(0, 1, int64(10))
			m.Send(0, 2, int64(20))
			m.Send(0, 3, int64(30)) // for a phase node 1 enters much later
			m.Next()
			m.Send(0, 2, int64(21))
			m.Send(0, 1, int64(11))
			m.SleepUntil(4)
			m.Send(0, 1, int64(12)) // tag 1 reappears after being drained
			m.Send(0, 4, int64(40))
			m.Next()
			return
		}
		m.SleepUntil(2)
		a := m.Take(1)
		b := m.Take(2)
		if got := bodies(a); !slices.Equal(got, []int64{10, 11}) {
			t.Errorf("tag 1 after a Take of tag 2: %v, want [10 11]", got)
		}
		if got := bodies(b); !slices.Equal(got, []int64{20, 21}) {
			t.Errorf("tag 2: %v, want [20 21]", got)
		}
		if a[0].Round != 0 || a[1].Round != 1 {
			t.Errorf("tag 1 send rounds %d/%d, want 0/1", a[0].Round, a[1].Round)
		}
		if q := m.Take(1); q != nil {
			t.Errorf("drained tag 1 still holds %v", bodies(q))
		}
		m.SleepUntil(5)
		if got := bodies(m.Take(1)); !slices.Equal(got, []int64{12}) {
			t.Errorf("reappeared tag 1: %v, want [12]", got)
		}
		if got := bodies(m.Take(4)); !slices.Equal(got, []int64{40}) {
			t.Errorf("tag 4: %v, want [40]", got)
		}
		if got := bodies(m.Take(3)); !slices.Equal(got, []int64{30}) {
			t.Errorf("drifted tag 3: %v, want [30]", got)
		}
		// Tags 1 and 4 landed in the slots tags 1 and 2 had drained.
		if len(m.slots) != 3 {
			t.Errorf("%d slots for at most 3 live tags", len(m.slots))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMailboxSteadyStateAllocFree pins the allocation-free message path:
// once the buffers have grown, a send → round → Take exchange between two
// nodes allocates nothing in the mailbox or the engine.
func TestMailboxSteadyStateAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	g := graph.Path(2, graph.UnitWeights)
	// Warm up past one lap of the engine's wake ring (1024 rounds), whose
	// per-round buckets grow on first use.
	const warm, runs = 2048, 100
	var allocs float64
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		step := func() {
			m.Send(0, 5, 1) // small ints box without allocating
			m.Next()
			if q := m.Take(5); len(q) != 1 {
				panic("exchange lost a message")
			}
		}
		for i := 0; i < warm; i++ {
			step()
		}
		if c.ID() == 0 {
			allocs = testing.AllocsPerRun(runs, step)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up call
				step()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state exchange allocates %.2f per round (2 messages), want 0", allocs)
	}
}

// BenchmarkMailbox measures the mailbox send/pump path: on a fixed small
// graph every node sends a tagged message on every edge each round, rotating
// through four tags, and drains it after the round.
func BenchmarkMailbox(b *testing.B) {
	g := graph.RandomConnected(32, 64, graph.UnitWeights, 1)
	const rounds = 200
	prog := func(c *simnet.Ctx) {
		m := NewMailbox(c)
		for r := 0; r < rounds; r++ {
			tag := uint64(r % 4)
			for i := 0; i < c.Degree(); i++ {
				m.Send(i, tag, r&0x7f)
			}
			m.Next()
			if q := m.Take(tag); len(q) != c.Degree() {
				panic("exchange lost a message")
			}
		}
	}
	var msgs int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simnet.New(g, simnet.Config{Model: simnet.Congest}).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Metrics.Messages
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(msgs), "allocs/msg")
}
