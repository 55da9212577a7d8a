// Package proto provides the coordination primitives shared by every
// distributed algorithm in this repository:
//
//   - Mailbox: tag-based message dispatch over a simnet.Ctx. Algorithms are
//     built from phases that may drift between connected components
//     (Section 2.3 of the paper), so a message can arrive for a phase the
//     receiver has not entered yet; the mailbox buffers by tag instead of
//     dropping.
//   - Rooted-tree aggregation: event-driven convergecast/broadcast for the
//     CONGEST model, and one-shot depth-indexed sweeps (2 awake rounds per
//     node) for the sleeping model (Section 3.1.1 of the paper).
//   - Barriers: the paper's "all of C done → root picks a start round
//     Θ(|C|) in the future → broadcast" synchronization step.
//
// # Mailbox buffers
//
// The tag is part of simnet's wire struct (Ctx.SendTag, Inbound.Tag), so a
// mailbox send passes the body through untouched; there is no envelope to
// box. Arrivals are buffered in a small slice of per-tag slots, each
// double-buffered the way simnet's inbox is: Take hands out the filled
// buffer and keeps the other one as the next fill buffer, and the slot of
// a drained tag is reused by the next tag that arrives. Steady-state
// delivery therefore allocates nothing. The ownership rule is simnet's
// (see simnet.Ctx.Next): a slice returned by Take, WaitTag or
// WaitTagCount is valid until the node's next receive call (Next,
// SleepUntil, SleepUntilAtLeast, AdvanceTo, WaitTag, WaitTagCount, or
// Pump); Takes of other tags in the same wake leave it intact.
package proto

import (
	"fmt"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Msg is a received, tag-matched message.
type Msg struct {
	From    graph.NodeID
	NbIndex int
	Round   int64
	Body    any
}

// Mailbox wraps a simnet.Ctx with tag-based buffering.
type Mailbox struct {
	C *simnet.Ctx

	// slots holds the per-tag buffers; a slot with an empty buf is free.
	// Programs keep only a few tags in flight at once, so a linear scan
	// beats a map and keeps the buffers reusable.
	slots []slot
}

// slot buffers the arrivals of one tag. buf is the fill buffer; spare is
// the slice the last Take handed out, which becomes the fill buffer at the
// next Take (by then a receive call has expired it).
type slot struct {
	tag   uint64
	buf   []Msg
	spare []Msg
}

// NewMailbox creates a mailbox over ctx.
func NewMailbox(ctx *simnet.Ctx) *Mailbox {
	return &Mailbox{C: ctx}
}

// Send queues body with the given tag on incident edge i.
func (m *Mailbox) Send(i int, tag uint64, body any) {
	m.C.SendTag(i, tag, body)
}

// Round returns the current round.
func (m *Mailbox) Round() int64 { return m.C.Round() }

func (m *Mailbox) pump(in []simnet.Inbound) {
	last := -1
	for _, ib := range in {
		if last < 0 || m.slots[last].tag != ib.Tag {
			last = m.slotFor(ib.Tag)
		}
		s := &m.slots[last]
		s.buf = append(s.buf, Msg{From: ib.From, NbIndex: ib.NbIndex, Round: ib.Round, Body: ib.Msg})
	}
}

// slotFor returns the index of the slot buffering tag, claiming a free
// slot (or adding one) if none does.
func (m *Mailbox) slotFor(tag uint64) int {
	free := -1
	for i := range m.slots {
		switch s := &m.slots[i]; {
		case len(s.buf) == 0:
			if free < 0 {
				free = i
			}
		case s.tag == tag:
			return i
		}
	}
	if free < 0 {
		free = len(m.slots)
		m.slots = append(m.slots, slot{})
	}
	m.slots[free].tag = tag
	return free
}

// Next advances one round, buffering arrivals.
func (m *Mailbox) Next() { m.pump(m.C.Next()) }

// SleepUntil sleeps until round r, buffering arrivals (in Sleeping mode,
// messages sent while asleep are lost by the model, not by the mailbox).
func (m *Mailbox) SleepUntil(r int64) { m.pump(m.C.SleepUntil(r)) }

// SleepUntilAtLeast clamps r to the future and sleeps.
func (m *Mailbox) SleepUntilAtLeast(r int64) { m.pump(m.C.SleepUntilAtLeast(r)) }

// AdvanceTo sleeps until round r; it is a no-op if the node is already in
// round r and panics if the node has overrun r (a scheduling bug).
func (m *Mailbox) AdvanceTo(r int64) {
	cur := m.C.Round()
	switch {
	case cur == r:
		return
	case cur > r:
		panic(fmt.Sprintf("proto: node %d overran scheduled round %d (now at %d)", m.C.ID(), r, cur))
	default:
		m.SleepUntil(r)
	}
}

// Pump buffers externally received inbounds (e.g. from a direct
// Ctx.WaitMessage call made by an algorithm that manages its own wake
// schedule).
func (m *Mailbox) Pump(in []simnet.Inbound) { m.pump(in) }

// Span runs f inside an open ledger span (see simnet.SpanMetrics): every
// round, message, and awake round the engine accounts while f executes —
// including all mailbox traffic f sends — is attributed to the (name,
// depth) span. Spans nest; panics propagate with the span closed. A no-op
// wrapper when the engine does not record spans.
func (m *Mailbox) Span(name string, depth int, f func()) {
	m.C.OpenSpan(name, depth)
	defer m.C.CloseSpan()
	f()
}

// Take drains and returns all buffered messages with the given tag (nil if
// there are none). The slice is valid until the next receive call.
func (m *Mailbox) Take(tag uint64) []Msg {
	for i := range m.slots {
		s := &m.slots[i]
		if len(s.buf) > 0 && s.tag == tag {
			q := s.buf
			s.buf, s.spare = s.spare[:0], q
			return q
		}
	}
	return nil
}

// WaitTag blocks (event-driven; Congest mode only) until at least one
// message with the given tag is buffered or the deadline round passes, then
// drains and returns them. A negative deadline waits indefinitely (the
// engine's deadlock detection is the backstop).
func (m *Mailbox) WaitTag(tag uint64, deadline int64) []Msg {
	for {
		if q := m.Take(tag); len(q) > 0 {
			return q
		}
		if deadline >= 0 && m.C.Round() >= deadline {
			return nil
		}
		m.pump(m.C.WaitMessage(deadline))
	}
}

// WaitTagCount blocks until at least want messages with the tag have been
// buffered (draining them incrementally), or the deadline passes; it returns
// all collected messages and whether the count was reached. When one Take
// collects them all, the result is that Take's slice (see Take for its
// lifetime); messages gathered across several wakes are copied out.
func (m *Mailbox) WaitTagCount(tag uint64, want int, deadline int64) ([]Msg, bool) {
	var acc []Msg
	for {
		q := m.Take(tag)
		if acc == nil && len(q) >= want {
			return q, true
		}
		acc = append(acc, q...)
		if len(acc) >= want {
			return acc, true
		}
		if deadline >= 0 && m.C.Round() >= deadline {
			return acc, false
		}
		m.pump(m.C.WaitMessage(deadline))
	}
}

// Tree is one node's view of a rooted spanning tree. Parent and Children are
// adjacency indexes of this node's incident edges; Parent is -1 at the root.
// A node with InTree == false ignores tree operations (returns zero values).
type Tree struct {
	InTree   bool
	Root     graph.NodeID
	Parent   int
	Children []int
	Depth    int64
}

// Combine merges two aggregation values (both may be nil; the helpers skip
// nil child contributions only if the combiner cannot handle them — by
// convention our combiners treat their arguments as already-valid values).
type Combine func(a, b any) any

// AggregateUp performs an event-driven convergecast (Congest mode): every
// node waits for one value from each child, combines them with its own, and
// sends the result to its parent. The root returns (aggregate, true); other
// nodes return (nil, false). Panics on deadline expiry — a protocol bug.
func AggregateUp(m *Mailbox, t Tree, tag uint64, mine any, combine Combine, deadline int64) (any, bool) {
	if !t.InTree {
		return nil, false
	}
	acc := mine
	msgs, ok := m.WaitTagCount(tag, len(t.Children), deadline)
	if !ok {
		panic(fmt.Sprintf("proto: node %d: AggregateUp(tag=%d) missed %d/%d children by round %d",
			m.C.ID(), tag, len(t.Children)-len(msgs), len(t.Children), deadline))
	}
	for _, msg := range msgs {
		acc = combine(acc, msg.Body)
	}
	if t.Parent < 0 {
		return acc, true
	}
	m.Send(t.Parent, tag, acc)
	return nil, false
}

// BroadcastDown distributes a value from the root to the whole tree
// (event-driven; Congest mode). The root passes its value in rootVal; other
// nodes receive their parent's value. Every node returns the value.
func BroadcastDown(m *Mailbox, t Tree, tag uint64, rootVal any, deadline int64) any {
	if !t.InTree {
		return nil
	}
	val := rootVal
	if t.Parent >= 0 {
		msgs := m.WaitTag(tag, deadline)
		if len(msgs) == 0 {
			panic(fmt.Sprintf("proto: node %d: BroadcastDown(tag=%d) timed out at round %d", m.C.ID(), tag, deadline))
		}
		val = msgs[0].Body
	}
	for _, ch := range t.Children {
		m.Send(ch, tag, val)
	}
	return val
}

// AggregateBroadcast runs AggregateUp then BroadcastDown of the aggregate,
// so every tree node learns the tree-wide aggregate.
func AggregateBroadcast(m *Mailbox, t Tree, tag uint64, mine any, combine Combine, deadline int64) any {
	agg, isRoot := AggregateUp(m, t, tag, mine, combine, deadline)
	var rootVal any
	if isRoot {
		rootVal = agg
	}
	return BroadcastDown(m, t, tag+1, rootVal, deadline)
}

// Barrier implements the paper's component synchronization (Section 2.3,
// step 4): each node enters when it is locally done; the root picks a common
// start round sizeBound+slack ahead and broadcasts it; every node sleeps
// until that round. sizeBound must be an upper bound on the tree depth.
// Nodes with t.InTree == false must not call Barrier.
func Barrier(m *Mailbox, t Tree, tag uint64, sizeBound int64, deadline int64) int64 {
	if !t.InTree {
		return 0
	}
	_, isRoot := AggregateUp(m, t, tag, nil, func(a, b any) any { return nil }, deadline)
	var rootVal any
	if isRoot {
		rootVal = m.C.Round() + sizeBound + 2
	}
	start := BroadcastDown(m, t, tag+1, rootVal, deadline).(int64)
	m.SleepUntilAtLeast(start)
	return start
}

// SweepUp performs a one-shot depth-indexed convergecast inside the window
// starting at windowStart: the node at depth d listens in round
// windowStart+depthBound-d-1 and sends to its parent in round
// windowStart+depthBound-d. Every node is awake for at most 2 rounds
// (Section 3.1.1's schedule, one-shot form). depthBound must be >= the tree
// depth. Works in both models. The root returns (aggregate, true) once the
// window completes; all nodes return after round windowStart+depthBound.
func SweepUp(m *Mailbox, t Tree, tag uint64, windowStart, depthBound int64, mine any, combine Combine) (any, bool) {
	if !t.InTree {
		return nil, false
	}
	if t.Depth > depthBound {
		panic(fmt.Sprintf("proto: node %d: SweepUp depth %d exceeds bound %d", m.C.ID(), t.Depth, depthBound))
	}
	sendRound := windowStart + depthBound - t.Depth
	acc := mine
	if len(t.Children) > 0 {
		m.AdvanceTo(sendRound - 1) // awake while children send
		m.SleepUntil(sendRound)
		for _, msg := range m.Take(tag) {
			acc = combine(acc, msg.Body)
		}
	} else {
		m.AdvanceTo(sendRound)
	}
	if t.Parent < 0 {
		return acc, true
	}
	// The send is flushed by the node's next yield, whichever helper
	// performs it; no extra awake round is needed.
	m.Send(t.Parent, tag, acc)
	return nil, false
}

// SweepDown performs a one-shot depth-indexed broadcast in the window
// starting at windowStart: the node at depth d receives in round
// windowStart+d-1 and sends to its children in round windowStart+d. The
// transform hook (optional) rewrites the value as it descends: it receives
// the value from the parent and returns the value to forward. Every node
// returns its (possibly transformed) value; at most 2 awake rounds per node.
func SweepDown(m *Mailbox, t Tree, tag uint64, windowStart int64, rootVal any, transform func(any) any) any {
	if !t.InTree {
		return nil
	}
	val := rootVal
	if t.Parent >= 0 {
		recvRound := windowStart + t.Depth - 1
		m.AdvanceTo(recvRound)
		m.SleepUntil(recvRound + 1)
		msgs := m.Take(tag)
		if len(msgs) == 0 {
			panic(fmt.Sprintf("proto: node %d: SweepDown(tag=%d) missed parent message in round %d", m.C.ID(), tag, recvRound))
		}
		val = msgs[0].Body
	} else {
		m.AdvanceTo(windowStart)
	}
	if transform != nil {
		val = transform(val)
	}
	for _, ch := range t.Children {
		m.Send(ch, tag, val)
	}
	return val
}

// Exchange sends a value on each incident edge selected by pick (pick
// returns the value and true to send) in the current round, advances one
// round, and returns the messages received with the tag. All participating
// neighbors must call Exchange in the same round.
func Exchange(m *Mailbox, tag uint64, pick func(i int) (any, bool)) []Msg {
	for i := 0; i < m.C.Degree(); i++ {
		if v, ok := pick(i); ok {
			m.Send(i, tag, v)
		}
	}
	m.Next()
	return m.Take(tag)
}
