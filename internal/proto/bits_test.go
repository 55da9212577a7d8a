package proto

import (
	"strings"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

func TestMessageBitsSizing(t *testing.T) {
	// Bodies sent with tag 0, whose wire cost is one bit.
	cases := []struct {
		name string
		body any
		want int64
	}{
		{"bool", true, 1},
		{"zero int", int64(0), 2},    // sign + 1 magnitude bit
		{"int 255", int64(255), 9},   // sign + 8
		{"negative", int64(-255), 9}, // magnitude of -255
		{"uint", uint64(1024), 11},   // Len64(1024)
		{"struct", struct{ A, B int64 }{3, 4}, (1 + 2) + (1 + 3)},
		{"empty struct", struct{}{}, 0},
		{"nil body", nil, 1},
		{"slice charges elements", []int64{1, 1, 1, 1}, 8 + 4*2},
		{"string", "ab", 8 + 16},
	}
	for _, c := range cases {
		if got := MessageBits(0, c.body); got != 1+c.want {
			t.Errorf("%s: MessageBits(0, %v) = %d, want %d", c.name, c.body, got, 1+c.want)
		}
	}
	// The tag is charged by its magnitude.
	if got := MessageBits(7, int64(1)); got != 3+2 { // Len64(7) + (sign+1)
		t.Errorf("MessageBits(7, 1) = %d, want 5", got)
	}
	// A Θ(n) payload must be charged Θ(n) bits — no smuggling a vector
	// inside "one message".
	big := make([]int64, 1000)
	if got := MessageBits(1, big); got < 1000 {
		t.Errorf("1000-element slice sized at only %d bits", got)
	}
}

func TestBitBudgetMonotone(t *testing.T) {
	if BitBudget(16, 1) <= 0 {
		t.Fatal("non-positive budget")
	}
	if BitBudget(1024, 1024) <= BitBudget(16, 1) {
		t.Error("budget must grow with n·maxW")
	}
	// O(log n): doubling n adds O(1) words' worth of bits.
	d := BitBudget(2048, 16) - BitBudget(1024, 16)
	if d <= 0 || d > 64 {
		t.Errorf("budget growth per doubling = %d bits, want a small positive constant", d)
	}
}

// TestStrictBudgetEnforced: the engine must fail loudly the moment a
// message exceeds MaxMessageBits, and must report MaxMessageBits in the
// metrics when sizing is on.
func TestStrictBudgetEnforced(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)

	// Within budget: runs clean and measures.
	eng := simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits, MaxMessageBits: 64})
	res, err := eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTag(0, 1, int64(42))
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxMessageBits == 0 {
		t.Error("MaxMessageBits not measured")
	}

	// Oversized: loud failure naming the offender.
	eng = simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits, MaxMessageBits: 64})
	_, err = eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTag(0, 1, make([]int64, 64))
		}
		c.Next()
	})
	if err == nil {
		t.Fatal("oversized message accepted")
	}
	if !strings.Contains(err.Error(), "strict CONGEST violation") || !strings.Contains(err.Error(), "64-bit budget") ||
		!strings.Contains(err.Error(), "([]int64)") {
		t.Errorf("violation not descriptive: %v", err)
	}

	// No budget: sizing only, never fails.
	eng = simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits})
	res, err = eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTag(0, 1, make([]int64, 64))
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxMessageBits < 64 {
		t.Errorf("big message sized at %d bits", res.Metrics.MaxMessageBits)
	}
}
