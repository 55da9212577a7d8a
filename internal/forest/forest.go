// Package forest implements the deterministic distributed maximal spanning
// forest used throughout the paper: Theorem 2.2 (Boruvka in CONGEST:
// O(n log n) time, polylog congestion) and Theorem 3.1 (the low-energy
// adaptation: Õ(n) time, polylog energy). One code path serves both models
// because every step is statically scheduled.
//
// Structure of a phase (component count with outgoing edges shrinks by a
// constant factor per phase; every component still running a phase has an
// outgoing edge, see the stop rule below):
//
//  1. Every participant exchanges its component ID with its eligible
//     neighbors (1 round, 2 messages per edge).
//  2. Each component finds its minimum-EdgeID outgoing edge with a
//     depth-indexed sweep up its component tree and distributes it with a
//     sweep down (2 awake rounds per node per sweep — Section 3.1.1).
//  3. The endpoint owning the chosen edge (the "chooser") notifies the
//     other endpoint, which registers an incoming bridge.
//  4. The chooser pseudo-forest (component -> chosen target) is properly
//     colored with <= 6 colors via 4 Cole–Vishkin iterations; each
//     iteration is one bridge exchange plus two tree sweeps.
//  5. Six merge sub-steps, one per color: a component of color c asks its
//     target through the bridge; the target replies OK (join: the target is
//     stationary this sub-step), BUSY (the target itself is attempting to
//     move right now), or SELF (the bridge closed a mutual pair that
//     already merged). On OK the satellite adopts the target's identity:
//     a marker sweep up the old tree records the path from the bridgehead
//     to the old root (these parent pointers flip), and a broadcast sweep
//     down rebases every member's depth, component ID, and color. Because
//     targets never move while absorbing, depths are consistent; because
//     colors are proper along chooser pointers, a component whose color is
//     smaller than its target's always succeeds, which yields the
//     1/6-progress bound behind the phase budget.
//
// Stop rule: a component whose step-2 sweep finds no outgoing eligible edge
// leaves the phase loop right there and sleeps until the final size
// agreement. This is safe in both models:
//
//   - Every node of the component receives the same chosen edge (none) from
//     the root's sweep down, so the whole component stops together.
//   - With no outgoing eligible edge it is a connected component of the
//     participant subgraph. Eligibility is symmetric, so no other
//     participant has an eligible edge into it either, and no live node ever
//     sends it an exchange, request, or bridge message.
//   - It would never merge again, so its Result (Tree, CompID, Size) is the
//     one it would have reached by running the idle phases.
//
// The schedule is unchanged: phases keep their fixed start rounds, the size
// agreement still starts after Phases(SizeBound) phase slots, and every
// participant returns at exactly StartRound + Duration(SizeBound). Energy
// per node is O(1) per phase section it runs (every wake is one of: the
// exchange, two rounds of a sweep, or a bridge round), giving O(log n)
// total — within Theorem 3.1's O(log^2 n) budget — and a component pays only
// for the phases before it became maximal, plus one exchange and min-edge
// sweep to find that out.
package forest

import (
	"fmt"
	"math/bits"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
)

// Params configures one forest construction. All participants must pass
// identical Tag, StartRound, and SizeBound.
type Params struct {
	// Tag is the base message tag; the construction uses Tag..Tag+12.
	Tag uint64
	// StartRound is the common round at which the construction begins; all
	// participants must be at or before it.
	StartRound int64
	// SizeBound is an upper bound on the size of any connected component of
	// the participant subgraph (>= 1). Budgets derive from it.
	SizeBound int64
	// Eligible restricts the construction to a subgraph (nil = all edges).
	// Both endpoints of an edge must agree on its eligibility.
	Eligible func(i int) bool
}

// Result is one node's view of its component after the construction.
type Result struct {
	// Tree is the rooted spanning tree of this node's component.
	Tree proto.Tree
	// CompID identifies the component (the leader's node ID = Tree.Root).
	CompID graph.NodeID
	// Size is the number of nodes in the component.
	Size int64
}

// Message tag offsets.
const (
	tagExch = iota
	tagMinUp
	tagMinDown
	tagChosen
	tagColor
	tagCVUp
	tagCVDown
	tagReq
	tagAck
	tagAdoptUp
	tagAdoptDown
	tagSizeUp
	tagSizeDown
)

// ack verdicts.
const (
	ackOK = iota + 1
	ackBusy
	ackSelf
)

const numColors = 6 // Cole–Vishkin final palette after cvIters iterations
const cvIters = 4

type minVal struct {
	Valid bool
	Edge  graph.EdgeID
}

type ackBody struct {
	Verdict int
	Comp    graph.NodeID
	Color   int64
	Depth   int64
}

type markerBody struct {
	Hops   int64
	Adopt  ackBody
	UDepth int64
}

type adoptDownBody struct {
	Noop        bool
	Adopt       ackBody
	UDepth      int64
	ParentDepth int64
}

// Phases returns the phase budget for a given component size bound:
// at least a 1/6 fraction of active components merges per phase, so
// 4*log2(S)+2 phases suffice (log base 6/5 of S, rounded up generously).
func Phases(sizeBound int64) int64 {
	if sizeBound < 2 {
		return 1
	}
	lg := int64(bits.Len64(uint64(sizeBound - 1))) // ceil(log2 S)
	return 4*lg + 2
}

func phaseLen(s int64) int64 { return 22*s + 68 }

// Duration returns the total number of rounds a construction with the given
// SizeBound occupies; every participant returns from Build exactly
// Duration(SizeBound) rounds after StartRound.
func Duration(sizeBound int64) int64 {
	return Phases(sizeBound)*phaseLen(sizeBound) + 2*(sizeBound+2) + 2
}

// node is the per-node construction state.
type node struct {
	mb  *proto.Mailbox
	p   Params
	s   int64 // SizeBound
	deg int

	eligible []bool

	compID   graph.NodeID
	color    int64
	parent   int    // nbIndex or -1
	children []bool // per edge: it leads to a tree child
	depth    int64

	// t caches tree(); stale marks it for a rebuild after the parent,
	// children, depth, or component changes.
	t     proto.Tree
	stale bool

	nbComp     []graph.NodeID // per edge, neighbor's component this phase
	chosenEdge int            // my adjacency index of my component's chosen edge, or -1
	incoming   []bool         // per edge: a chooser registered on it this phase
	nIncoming  int            // number of true entries in incoming

	// adopt bookkeeping (per sub-step)
	pathChild int
	pathHops  int64
	marker    *markerBody
}

func (f *node) tag(off int) uint64 { return f.p.Tag + uint64(off) }

// tree returns this node's view of its component tree, children in
// adjacency order (so every loop over them sends in a fixed order).
func (f *node) tree() proto.Tree {
	if f.stale {
		f.t = proto.Tree{InTree: true, Root: f.compID, Parent: f.parent, Depth: f.depth}
		for ch, ok := range f.children {
			if ok {
				f.t.Children = append(f.t.Children, ch)
			}
		}
		f.stale = false
	}
	return f.t
}

// Build runs the construction. Only participants call it; each returns its
// Result at round StartRound + Duration(SizeBound).
func Build(mb *proto.Mailbox, p Params) Result {
	if p.SizeBound < 1 {
		panic("forest: SizeBound must be >= 1")
	}
	f := &node{
		mb:         mb,
		p:          p,
		s:          p.SizeBound,
		deg:        mb.C.Degree(),
		compID:     mb.C.ID(),
		color:      int64(mb.C.ID()),
		parent:     -1,
		stale:      true,
		chosenEdge: -1,
	}
	f.eligible = make([]bool, f.deg)
	for i := 0; i < f.deg; i++ {
		f.eligible[i] = p.Eligible == nil || p.Eligible(i)
	}
	f.nbComp = make([]graph.NodeID, f.deg)
	f.children = make([]bool, f.deg)
	f.incoming = make([]bool, f.deg)

	phases := Phases(f.s)
	for ph := int64(0); ph < phases; ph++ {
		if !f.phase(p.StartRound + ph*phaseLen(f.s)) {
			break // maximal: sleep through the remaining phases
		}
	}

	// Final size agreement.
	fin := p.StartRound + phases*phaseLen(f.s)
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagSizeUp), fin, f.s, int64(1),
		func(a, b any) any { return a.(int64) + b.(int64) })
	var rv any
	if isRoot {
		rv = agg
	}
	size := proto.SweepDown(mb, f.tree(), f.tag(tagSizeDown), fin+f.s+2, rv).(int64)
	mb.AdvanceTo(p.StartRound + Duration(f.s))
	return Result{Tree: f.tree(), CompID: f.compID, Size: size}
}

// phase runs one Borůvka phase starting at round r0. It reports whether the
// component still had an outgoing eligible edge; when it had none, the phase
// ends right after the min-edge sweep and the component is final.
func (f *node) phase(r0 int64) bool {
	mb := f.mb
	s := f.s

	// Colors restart from the (component-wide unique) component ID: CV
	// properness needs distinct inputs, and last phase's 6-color palette
	// is not distinct across components.
	f.color = int64(f.compID)

	// (1) Component-ID exchange.
	mb.AdvanceTo(r0)
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] {
			mb.Send(i, f.tag(tagExch), f.compID)
		}
	}
	mb.SleepUntil(r0 + 1)
	for i := range f.nbComp {
		f.nbComp[i] = -1
	}
	for _, m := range mb.Take(f.tag(tagExch)) {
		f.nbComp[m.NbIndex] = m.Body.(graph.NodeID)
	}

	// (2) Minimum outgoing edge via two sweeps.
	mine := minVal{}
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID {
			id := mb.C.EdgeID(i)
			if !mine.Valid || id < mine.Edge {
				mine = minVal{Valid: true, Edge: id}
			}
		}
	}
	combineMin := func(a, b any) any {
		x, y := a.(minVal), b.(minVal)
		if !x.Valid {
			return y
		}
		if !y.Valid {
			return x
		}
		if y.Edge < x.Edge {
			return y
		}
		return x
	}
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagMinUp), r0+2, s, mine, combineMin)
	var rv any
	if isRoot {
		rv = agg
	}
	chosen := proto.SweepDown(mb, f.tree(), f.tag(tagMinDown), r0+s+4, rv).(minVal)
	if !chosen.Valid {
		return false
	}
	f.chosenEdge = -1
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID && mb.C.EdgeID(i) == chosen.Edge {
			f.chosenEdge = i
		}
	}

	// (3) Choice notification.
	a3 := r0 + 2*s + 6
	clear(f.incoming)
	f.nIncoming = 0
	mb.AdvanceTo(a3)
	if f.chosenEdge >= 0 {
		mb.Send(f.chosenEdge, f.tag(tagChosen), struct{}{})
	}
	mb.SleepUntil(a3 + 1)
	for _, m := range mb.Take(f.tag(tagChosen)) {
		f.incoming[m.NbIndex] = true // one notification per edge at most
		f.nIncoming++
	}

	// (4) Cole–Vishkin coloring of the chooser pseudo-forest.
	a4 := r0 + 2*s + 8
	for t := 0; t < cvIters; t++ {
		f.cvIter(a4 + int64(t)*(2*s+6))
	}
	if f.color >= numColors {
		panic(fmt.Sprintf("forest: node %d: CV color %d out of palette", mb.C.ID(), f.color))
	}

	// (5) Merge sub-steps, one per color.
	a5 := a4 + cvIters*(2*s+6)
	for c := int64(0); c < numColors; c++ {
		f.subStep(c, a5+c*(2*s+6))
	}
	return true
}

// cvIter performs one Cole–Vishkin iteration starting at round b: targets
// send their component's current color over incoming bridges; the chooser
// computes the new color; two sweeps distribute it component-wide.
func (f *node) cvIter(b int64) {
	mb := f.mb
	s := f.s
	if f.nIncoming > 0 || f.chosenEdge >= 0 {
		mb.AdvanceTo(b)
		for e, in := range f.incoming {
			if in {
				mb.Send(e, f.tag(tagColor), f.color)
			}
		}
		mb.SleepUntil(b + 1)
	}
	var myNew any
	if f.chosenEdge >= 0 {
		msgs := mb.Take(f.tag(tagColor))
		var tColor int64 = -1
		for _, m := range msgs {
			if m.NbIndex == f.chosenEdge {
				tColor = m.Body.(int64)
			}
		}
		if tColor < 0 {
			panic(fmt.Sprintf("forest: node %d: missing target color on bridge", mb.C.ID()))
		}
		myNew = cvStep(f.color, tColor)
	}
	up, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagCVUp), b+2, s, myNew, pickNonNil)
	var rv any
	if isRoot {
		rv = up
	}
	f.color = proto.SweepDown(mb, f.tree(), f.tag(tagCVDown), b+s+4, rv).(int64)
}

// cvStep maps (mine, target) to the next color. Colors along a chooser
// pointer start distinct (component IDs) and each step keeps them distinct,
// so equal inputs do not arise; the mine == target branch keeps the map
// total.
func cvStep(mine, target int64) int64 {
	if mine == target {
		return mine & 1
	}
	i := int64(bits.TrailingZeros64(uint64(mine ^ target)))
	return 2*i + ((mine >> i) & 1)
}

func pickNonNil(a, b any) any {
	if a == nil {
		return b
	}
	return a
}

// subStep executes merge sub-step c starting at round sc.
func (f *node) subStep(c, sc int64) {
	mb := f.mb
	s := f.s
	attempting := f.color == c
	chooserNow := attempting && f.chosenEdge >= 0

	if chooserNow || f.nIncoming > 0 {
		mb.AdvanceTo(sc)
		if chooserNow {
			mb.Send(f.chosenEdge, f.tag(tagReq), f.compID)
		}
		mb.SleepUntil(sc + 1)
		for _, m := range mb.Take(f.tag(tagReq)) {
			switch {
			case m.Body.(graph.NodeID) == f.compID:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackSelf})
			case f.color == c:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackBusy})
			default:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{
					Verdict: ackOK, Comp: f.compID, Color: f.color, Depth: f.depth,
				})
				f.children[m.NbIndex] = true
				f.stale = true
			}
		}
	}
	if !attempting {
		return
	}

	// Adopt sweep A (marker up the old tree, old-depth schedule).
	f.marker = nil
	f.pathChild = -1
	f.pathHops = 0
	upStart := sc + 2
	sendRound := upStart + s - f.depth
	if len(f.tree().Children) > 0 {
		mb.AdvanceTo(sendRound - 1)
		mb.SleepUntil(sendRound)
	} else {
		mb.AdvanceTo(sendRound)
	}
	if chooserNow {
		// The chooser is awake at sc+1, so the ACK (sent in round sc+1) is
		// in the mailbox by now.
		for _, m := range mb.Take(f.tag(tagAck)) {
			ack := m.Body.(ackBody)
			if ack.Verdict == ackOK {
				f.marker = &markerBody{Hops: 0, Adopt: ack, UDepth: ack.Depth + 1}
			}
		}
	}
	for _, m := range mb.Take(f.tag(tagAdoptUp)) {
		mk := m.Body.(markerBody)
		f.pathChild = m.NbIndex
		f.pathHops = mk.Hops
		f.marker = &markerBody{Hops: mk.Hops, Adopt: mk.Adopt, UDepth: mk.UDepth}
	}
	if f.marker != nil && f.parent >= 0 {
		mb.Send(f.parent, f.tag(tagAdoptUp), markerBody{
			Hops: f.marker.Hops + 1, Adopt: f.marker.Adopt, UDepth: f.marker.UDepth,
		})
	}

	// Adopt sweep B (broadcast down the old tree, old-depth schedule).
	dwStart := sc + s + 3
	var body adoptDownBody
	if f.parent >= 0 {
		recvRound := dwStart + f.depth - 1
		mb.AdvanceTo(recvRound)
		mb.SleepUntil(recvRound + 1)
		msgs := mb.Take(f.tag(tagAdoptDown))
		if len(msgs) == 0 {
			panic(fmt.Sprintf("forest: node %d: missing adopt broadcast", mb.C.ID()))
		}
		body = msgs[0].Body.(adoptDownBody)
	} else {
		mb.AdvanceTo(dwStart)
		if f.marker == nil {
			body = adoptDownBody{Noop: true}
		} else {
			body = adoptDownBody{Adopt: f.marker.Adopt, UDepth: f.marker.UDepth}
		}
	}
	if body.Noop {
		for _, ch := range f.tree().Children {
			mb.Send(ch, f.tag(tagAdoptDown), body)
		}
		return
	}
	onPath := f.pathChild >= 0 || (f.marker != nil && f.pathChild < 0 && chooserNow)
	var newDepth int64
	if onPath {
		newDepth = body.UDepth + f.pathHops
	} else {
		newDepth = body.ParentDepth + 1
	}
	fwd := body
	fwd.ParentDepth = newDepth
	for _, ch := range f.tree().Children {
		mb.Send(ch, f.tag(tagAdoptDown), fwd)
	}
	// Apply the move: flip the path, adopt identity.
	oldParent := f.parent
	switch {
	case chooserNow && f.marker != nil:
		f.parent = f.chosenEdge
		if oldParent >= 0 {
			f.children[oldParent] = true
		}
	case f.pathChild >= 0:
		f.parent = f.pathChild
		f.children[f.pathChild] = false
		if oldParent >= 0 {
			f.children[oldParent] = true
		}
	}
	f.compID = body.Adopt.Comp
	f.color = body.Adopt.Color
	f.depth = newDepth
	f.chosenEdge = -1
	f.stale = true
}
