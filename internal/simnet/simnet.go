// Package simnet implements the synchronous message-passing model of
// distributed computing used by the paper (CONGEST), together with its
// sleeping-model extension where nodes may sleep and messages sent to a
// sleeping node are lost (Section 1.2 of the paper).
//
// Each node runs a Program in its own coroutine and communicates with the
// engine through a Ctx. Execution proceeds in lock-step rounds:
//
//   - A node is awake in exactly the rounds in which it executes (each
//     yield point — Next, SleepUntil, WaitMessage — ends one awake round).
//   - A message sent in round r is received iff the destination is awake in
//     round r; it is handed to the destination at its next resume.
//   - In Congest mode all nodes are logically always awake: messages are
//     never lost and WaitMessage allows event-driven execution. The engine
//     still skips nodes with nothing to do; that is a simulation
//     optimization, not a model change.
//   - In Sleeping mode the engine counts each node's awake rounds — the
//     paper's energy measure — and drops messages to sleeping nodes.
//
// The engine is deterministic: nodes are resumed and their messages
// delivered in node-ID order, so a run is a pure function of the graph,
// the program, and the per-node inputs.
//
// # Messages
//
// A message is a (tag, body) pair and the tag is part of the engine's wire
// struct: Ctx.SendTag stores it in the outbox entry and the receiver reads
// it from Inbound.Tag (Ctx.Send is the untagged form, tag 0). Protocol
// layers dispatch on the tag without wrapping the body, so a send boxes
// nothing beyond the body itself. Config.MessageBits sizes the pair as
// (tag, body), again without boxing it.
//
// # Execution core
//
// The scheduler is a calendar (bucket) queue: wakes in the near window are
// O(1) ring-bucket appends, and only far-future SleepUntil/WaitMessage
// deadlines fall back to a typed binary heap (see wakeQueue). Node programs
// are iter.Pull coroutines rather than channel-synchronized goroutines, so
// a resume/yield pair is a direct coroutine switch — no Go-scheduler round
// trip, channel locks, or park/unpark — and a node that merely calls Next()
// on an empty inbox costs little more than a function call.
//
// # Intra-round parallelism
//
// The model gives rounds no internal ordering semantics: within a round
// every awake node acts on the state it held at the round's start, and all
// sends land at the end of the round. The engine exploits exactly that
// independence when Config.Workers > 1: each round's batch of resumes fans
// out over a persistent worker pool (see resumePool), while everything with
// cross-node effects — queue updates, halt accounting, span attribution,
// message delivery, error selection — is deferred to a deterministic
// barrier that replays it on the engine goroutine in node-ID order. A
// parallel run is therefore byte-identical to a sequential one in Metrics,
// Outputs, Trace, span ledger, and error text (enforced by the oracle
// differential tests in this package).
//
// # Memory layout
//
// Per-node scheduling state (wake round, queue seq, yield kind, halted,
// park deadline) lives in struct-of-arrays form on the Engine, so the hot
// take/filter loops scan dense arrays instead of striding over the full
// node structs. Buffers are pooled across rounds: each node's inbox is
// double-buffered (see Ctx.Next for the resulting ownership rule) and
// outboxes are reused, with the initial buffers for all nodes carved from
// three shared degree-proportional arenas — at n=10^5 that is three
// allocations instead of ~3n, and growth past a node's carve falls back to
// the heap transparently. The trace buffer is preallocated from the edge
// count.
package simnet

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"dsssp/internal/graph"
)

// Model selects the execution model.
type Model int

// Execution models.
const (
	// Congest is the standard synchronous CONGEST model: all nodes are
	// always awake, messages are never lost.
	Congest Model = iota + 1
	// Sleeping is the sleeping (energy) model: nodes are awake only in the
	// rounds they execute, and messages to sleeping nodes are lost.
	Sleeping
)

func (m Model) String() string {
	switch m {
	case Congest:
		return "congest"
	case Sleeping:
		return "sleeping"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Config configures an Engine.
type Config struct {
	Model Model
	// MaxRounds aborts the run if the round counter exceeds it.
	// 0 means a generous default of 1<<40.
	MaxRounds int64
	// RecordTrace records one TraceEntry per message (for the APSP
	// scheduling analysis).
	RecordTrace bool
	// StrictCongest makes the run fail if more than one message crosses an
	// edge in the same direction in the same round (the literal CONGEST
	// constraint). Leave false for algorithms that multiplex subroutines
	// and rely on megaround accounting (Section 3.1.3).
	StrictCongest bool
	// MessageBits, if non-nil, estimates the wire size of every sent
	// message in bits from its tag and body (the two halves of the wire
	// struct, passed apart so sizing never boxes them); the maximum is
	// reported in Metrics.MaxMessageBits. Leave nil to skip the
	// (reflection-heavy) measurement on hot paths.
	MessageBits func(tag uint64, body any) int64
	// MaxMessageBits, when > 0 and MessageBits is set, is the strict
	// CONGEST bandwidth budget: the run fails loudly as soon as any single
	// message exceeds it. The paper's model allows O(log n)-bit messages;
	// callers derive the concrete budget from the graph (see
	// proto.BitBudget).
	MaxMessageBits int64
	// RecordSpans maintains the span ledger (see span.go): programs may
	// open/close named spans via Ctx, and the engine attributes every
	// round, message, awake round, and message bit measurement to exactly
	// one open span, reported in Metrics.Spans.
	RecordSpans bool
	// Workers sets the intra-round worker pool for this run. Within a
	// round every awake node acts independently, so the engine fans the
	// round's coroutine resumes out over Workers goroutines and re-merges
	// at a deterministic per-round barrier: queue updates, halts, span
	// attribution, and message delivery all replay on the engine goroutine
	// in node-ID order. Metrics, Outputs, Trace, the span ledger, and
	// error text are byte-identical to the sequential engine for every
	// value. 0 or 1 means sequential (the default); values above
	// runtime.GOMAXPROCS rarely help.
	Workers int
}

// Inbound is a received message.
type Inbound struct {
	From graph.NodeID
	// NbIndex is the receiver's adjacency index of the edge the message
	// arrived on.
	NbIndex int
	// Round is the round in which the message was sent (and received).
	Round int64
	// Tag is the sender's message tag (0 for untagged sends); see
	// Ctx.SendTag.
	Tag uint64
	Msg any
}

// TraceEntry records one message for scheduling analysis.
type TraceEntry struct {
	Round int64
	Edge  graph.EdgeID
	// Dir is 0 if sent by the canonical (smaller-ID) endpoint, 1 otherwise.
	Dir byte
}

// Metrics aggregates the complexity measures the paper's theorems bound.
type Metrics struct {
	// Rounds is the number of rounds elapsed (last active round + 1).
	Rounds int64
	// StrictRounds is the runtime after expanding every round into
	// max(1, max_e per-direction load) strict CONGEST rounds (megaround
	// accounting, Section 3.1.3).
	StrictRounds int64
	// Messages is the total number of messages sent.
	Messages int64
	// LostMessages counts messages sent to sleeping nodes (Sleeping mode).
	LostMessages int64
	// DroppedAfterHalt counts messages sent to halted nodes.
	DroppedAfterHalt int64
	// MaxEdgeMessages is the maximum, over undirected edges, of the total
	// messages carried (both directions) — the paper's congestion measure.
	MaxEdgeMessages int64
	// MaxMessageBits is the largest single message observed, in bits
	// (0 unless Config.MessageBits was set) — the strict CONGEST
	// bandwidth measure.
	MaxMessageBits int64
	// TotalAwake is the sum over nodes of awake rounds.
	TotalAwake int64
	// MaxAwake is the maximum over nodes of awake rounds — the paper's
	// energy complexity measure.
	MaxAwake int64
	// PerEdgeMessages holds total messages per undirected edge.
	PerEdgeMessages []int64
	// PerNodeAwake holds awake rounds per node.
	PerNodeAwake []int64
	// Spans is the span ledger in first-open order (only when
	// Config.RecordSpans): Rounds/Messages/AwakeRounds partition the
	// corresponding totals above, MaxMessageBits is a per-span maximum.
	Spans []SpanMetrics
}

func (m *Metrics) String() string {
	return fmt.Sprintf("rounds=%d strict=%d msgs=%d lost=%d maxEdge=%d maxAwake=%d totalAwake=%d",
		m.Rounds, m.StrictRounds, m.Messages, m.LostMessages, m.MaxEdgeMessages, m.MaxAwake, m.TotalAwake)
}

// Program is the code run by every node. The Ctx gives access to the node's
// local view. A Program must only interact with the world through its Ctx;
// when it returns, the node halts.
type Program func(*Ctx)

// Result is the outcome of a completed run.
type Result struct {
	// Outputs holds the value each node passed to Ctx.SetOutput (nil if
	// none).
	Outputs []any
	Metrics Metrics
	// Trace holds per-message entries when Config.RecordTrace is set.
	Trace []TraceEntry
}

const defaultMaxRounds = int64(1) << 40

type yieldKind int8

const (
	yieldRun  yieldKind = iota + 1 // scheduled wake
	yieldPark                      // Congest WaitMessage
	yieldHalt                      // program returned
)

type outMsg struct {
	nbIndex int
	// span is the sender's open span at Send time (0 unless
	// Config.RecordSpans) — message attribution must not shift when a node
	// switches phases between sending and the end-of-round flush.
	span int32
	tag  uint64
	msg  any
}

// nodeState holds the per-node state the scheduler does not scan per entry:
// the coroutine handles, the message buffers, and the (cold) output/error/
// span fields. The hot scheduling scalars — kind, halted, wake round, park
// deadline, queue seq — live in struct-of-arrays form on the Engine, so the
// stale-entry filter and batch loops touch dense arrays only.
type nodeState struct {
	id graph.NodeID

	// resume/stop drive the node's iter.Pull coroutine; yieldFn is the
	// coroutine's yield, stashed so Ctx.yield can switch back to the
	// engine. yieldFn returning false means the engine called stop — the
	// node must unwind (Ctx.yield panics errKilled, recovered in the
	// coroutine wrapper).
	resume  func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool

	// ctx is the node's handle, embedded to avoid a separate allocation
	// per node.
	ctx Ctx

	inbox []Inbound
	// spare is the inbox double-buffer: the slice handed out at the last
	// take becomes the fill buffer at the next one (see Ctx.take), so
	// steady-state message delivery stops allocating.
	spare  []Inbound
	outbox []outMsg

	output any
	perr   error

	// spanStack holds the node's open ledger spans (innermost last); empty
	// means the root span. Unused unless Config.RecordSpans.
	spanStack []int32
	// openSeq counts this node's OpenSpan calls; combined with the wake
	// round and node ID it forms the deterministic first-open key that
	// lets parallel runs reproduce the sequential ledger order (span.go).
	openSeq int64
	// resumeSpan is the span the node was in when the engine resumed it
	// this round, captured before the resume runs so the post-barrier pass
	// can attribute the awake round without re-reading mutated state.
	resumeSpan int32
}

// Engine executes one Program on every node of a graph.
type Engine struct {
	g   *graph.Graph
	cfg Config

	nodes []nodeState

	// Struct-of-arrays scheduling state, indexed by node ID (see nodeState).
	// During a parallel resume phase workers write only their own nodes'
	// elements; everything else happens on the engine goroutine.
	kind         []yieldKind
	halted       []bool
	wakeRound    []int64
	parkDeadline []int64 // <0: none
	seq          []int64 // invalidates stale queue entries
	awakeEpoch   []int64

	// met points at the in-flight run's metrics (resumeOne needs the
	// per-node awake counters).
	met *Metrics

	// revFlat[revOff[u]+i] is the neighbor's adjacency index of the edge
	// that is u's i-th edge (flat layout; EdgeIDs and adjacency offsets are
	// dense, so no map is needed).
	revOff  []int32
	revFlat []int32

	// pool is the intra-round worker pool, non-nil only while a parallel
	// Run drives the round loop (Config.Workers > 1).
	pool *resumePool

	// Span ledger (Config.RecordSpans): interned (name, depth) spans and
	// their counters; index 0 is the root span every node starts in. In a
	// parallel run spanMu guards interning (the one engine-shared mutation
	// node programs perform) and spanFirst tracks each span's minimal
	// (round, node, open-seq) key, which reproduces the sequential
	// first-open order at ledger-emit time.
	spanIDs   map[spanKey]int32
	spans     []SpanMetrics
	spanMu    sync.Mutex
	spanFirst []spanFirstKey
}

// New creates an engine for one run over g. The graph must have sorted
// adjacency lists (all generators guarantee this).
func New(g *graph.Graph, cfg Config) *Engine {
	if cfg.Model != Congest && cfg.Model != Sleeping {
		panic("simnet: config needs an explicit Model")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	e := &Engine{g: g, cfg: cfg}
	e.buildReverseIndex()
	return e
}

func (e *Engine) buildReverseIndex() {
	g := e.g
	n := g.N()
	e.revOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		e.revOff[u+1] = e.revOff[u] + int32(g.Degree(graph.NodeID(u)))
	}
	e.revFlat = make([]int32, e.revOff[n])
	// slots[id] remembers the first-seen endpoint of edge id; EdgeIDs are
	// dense 0..m-1, so a flat slice replaces a map here.
	type slot struct {
		u    graph.NodeID
		iAdj int32
	}
	slots := make([]slot, g.M())
	for i := range slots {
		slots[i].u = -1
	}
	for u := 0; u < n; u++ {
		off := e.revOff[u]
		for i, h := range g.Adj(graph.NodeID(u)) {
			if s := slots[h.ID]; s.u >= 0 {
				e.revFlat[off+int32(i)] = s.iAdj
				e.revFlat[e.revOff[s.u]+s.iAdj] = int32(i)
			} else {
				slots[h.ID] = slot{graph.NodeID(u), int32(i)}
			}
		}
	}
}

// start allocates the per-node state and wraps every node's program in an
// iter.Pull coroutine (started lazily at its first resume). Shared by the
// production scheduler and the frozen oracle scheduler in the tests.
func (e *Engine) start(p Program) *Result {
	n := e.g.N()
	e.nodes = make([]nodeState, n)
	e.kind = make([]yieldKind, n)
	e.halted = make([]bool, n)
	e.wakeRound = make([]int64, n)
	e.parkDeadline = make([]int64, n)
	e.seq = make([]int64, n)
	res := &Result{Outputs: make([]any, n)}
	res.Metrics.PerEdgeMessages = make([]int64, e.g.M())
	res.Metrics.PerNodeAwake = make([]int64, n)
	if e.cfg.RecordTrace {
		// The paper's algorithms carry polylog messages per edge; a few
		// multiples of m absorbs the common case without growth cascades.
		res.Trace = make([]TraceEntry, 0, 4*e.g.M()+16)
	}
	if e.cfg.RecordSpans {
		e.spanIDs = make(map[spanKey]int32)
		e.internSpan(RootSpanName, 0)
	}
	// Buffer arenas: the initial inbox/spare/outbox capacity of every node
	// is carved out of three shared chunks sized by degree (a node rarely
	// holds more than one message per incident edge per wake). Three
	// allocations replace ~3n individually grown slices at large n; a node
	// that outgrows its carve reallocates to the heap via plain append.
	total := 2 * e.g.M()
	inArena := make([]Inbound, 0, total)
	spArena := make([]Inbound, 0, total)
	outArena := make([]outMsg, 0, total)
	off := 0
	for i := 0; i < n; i++ {
		ns := &e.nodes[i]
		ns.id = graph.NodeID(i)
		deg := e.g.Degree(graph.NodeID(i))
		ns.inbox = inArena[off : off : off+deg]
		ns.spare = spArena[off : off : off+deg]
		ns.outbox = outArena[off : off : off+deg]
		off += deg
		ns.ctx = Ctx{eng: e, ns: ns}
		ns.resume, ns.stop = iter.Pull(func(yield func(struct{}) bool) {
			ns.yieldFn = yield
			defer func() {
				if r := recover(); r != nil {
					if r == errKilled {
						// Engine-initiated shutdown; unwind quietly.
						return
					}
					ns.perr = fmt.Errorf("node %d panicked: %v", ns.id, r)
				}
				e.kind[ns.id] = yieldHalt
			}()
			p(&ns.ctx)
		})
	}
	return res
}

// resumeOne performs the node-local half of one wake: epoch/awake counters,
// the span snapshot, the round stamp, and the coroutine switch itself. It
// touches only state owned by node id (distinct array elements, the node's
// own struct), which is what makes it safe to run for all batched nodes
// concurrently; every cross-node effect waits for the post-barrier pass.
func (e *Engine) resumeOne(id graph.NodeID, cur int64) {
	ns := &e.nodes[id]
	e.awakeEpoch[id] = cur
	e.met.PerNodeAwake[id]++
	if e.cfg.RecordSpans {
		ns.resumeSpan = ns.curSpan()
	}
	e.wakeRound[id] = cur
	ns.resume()
}

// Run executes the program on all nodes until every node halts (or an error
// such as deadlock, round overflow, or a node panic occurs). Run may be
// called only once per Engine.
func (e *Engine) Run(p Program) (*Result, error) {
	res := e.start(p)
	defer e.shutdown()
	e.met = &res.Metrics

	if e.cfg.Workers > 1 {
		e.pool = newResumePool(e, e.cfg.Workers)
		defer e.pool.close()
		if e.cfg.RecordSpans {
			// The root span was interned in start, before parallel keying
			// was active; pin it to the minimal key so it stays first.
			e.spanFirst = append(e.spanFirst, spanFirstKey{round: -1, node: -1})
		}
	}

	n := e.g.N()
	met := &res.Metrics
	q := &wakeQueue{}
	// All nodes wake at round 0.
	for i := 0; i < n; i++ {
		q.push(0, graph.NodeID(i), 0)
	}

	halted := 0
	parked := 0
	// Per-round directed-edge load tracking (epoch trick).
	dirLoad := make([]int64, 2*e.g.M())
	dirSeen := make([]int64, 2*e.g.M())
	for i := range dirSeen {
		dirSeen[i] = -1
	}
	e.awakeEpoch = make([]int64, n)
	for i := range e.awakeEpoch {
		e.awakeEpoch[i] = -1
	}

	var cur int64 = -1
	spanPrev := int64(-1) // last round whose elapsed interval was attributed
	batch := make([]graph.NodeID, 0, n)
	for halted < n {
		r, ok := q.next()
		if !ok {
			if parked > 0 {
				return nil, fmt.Errorf("simnet: deadlock at round %d: %d node(s) parked in WaitMessage with no pending wakeups", cur, parked)
			}
			return nil, fmt.Errorf("simnet: internal error: no wakeups and %d unhalted nodes", n-halted)
		}
		cur = r
		if cur > e.cfg.MaxRounds {
			return nil, Computef("simnet: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		batch = batch[:0]
		for _, bw := range q.take(cur) {
			if e.halted[bw.id] || e.seq[bw.id] != bw.seq {
				continue // stale entry
			}
			if e.kind[bw.id] == yieldPark {
				// Deadline expiry of a parked node.
				e.kind[bw.id] = yieldRun
				parked--
			}
			batch = append(batch, bw.id)
		}
		// Resume each awake node in ID order (bucket entries arrive in
		// push order, so sort; singleton batches — the common case — skip
		// it).
		if len(batch) > 1 {
			slices.Sort(batch)
		}
		// Attribute the elapsed interval ending at this round to the span
		// of the earliest-resumed node (see span.go: the rule that makes
		// per-span rounds an exact partition of Metrics.Rounds). Read
		// before any resume mutates span stacks.
		if e.cfg.RecordSpans && len(batch) > 0 {
			e.spans[e.nodes[batch[0]].curSpan()].Rounds += cur - spanPrev
			spanPrev = cur
		}
		// Resume phase: within the round every batched node acts
		// independently, so the coroutine resumes may run concurrently.
		// Small batches stay inline — the barrier handoff would cost more
		// than it buys.
		if e.pool != nil && len(batch) >= e.pool.minBatch {
			e.pool.runRound(batch, cur)
		} else {
			for _, id := range batch {
				e.resumeOne(id, cur)
			}
		}
		// Post-barrier pass in node-ID order: exactly the engine-side
		// effects the sequential engine interleaves with the resumes —
		// error selection (lowest node ID wins, matching the order the
		// sequential engine hits a panic in), awake/span accounting, halt
		// bookkeeping, and wake-queue pushes.
		for _, id := range batch {
			ns := &e.nodes[id]
			if ns.perr != nil {
				e.halted[id] = true // coroutine has exited
				return nil, ns.perr
			}
			met.TotalAwake++
			if e.cfg.RecordSpans {
				e.spans[ns.resumeSpan].AwakeRounds++
			}
			switch e.kind[id] {
			case yieldHalt:
				e.halted[id] = true
				halted++
				res.Outputs[id] = ns.output
			case yieldPark:
				parked++
				if e.parkDeadline[id] >= 0 {
					e.seq[id]++
					q.push(e.parkDeadline[id], id, e.seq[id])
				}
			case yieldRun:
				e.seq[id]++
				q.push(e.wakeRound[id], id, e.seq[id])
			}
		}
		// Deliver this round's messages in sender-ID order.
		var maxLoad int64 = 1
		for _, id := range batch {
			ns := &e.nodes[id]
			if len(ns.outbox) == 0 {
				continue
			}
			adj := e.g.Adj(id)
			rev := e.revFlat[e.revOff[id]:]
			for _, om := range ns.outbox {
				h := adj[om.nbIndex]
				met.Messages++
				met.PerEdgeMessages[h.ID]++
				if e.cfg.RecordSpans {
					e.spans[om.span].Messages++
				}
				if e.cfg.MessageBits != nil {
					b := e.cfg.MessageBits(om.tag, om.msg)
					if b > met.MaxMessageBits {
						met.MaxMessageBits = b
					}
					if e.cfg.RecordSpans && b > e.spans[om.span].MaxMessageBits {
						e.spans[om.span].MaxMessageBits = b
					}
					if e.cfg.MaxMessageBits > 0 && b > e.cfg.MaxMessageBits {
						return nil, Computef(
							"simnet: strict CONGEST violation: node %d sent a %d-bit message (%T) over edge %d in round %d, exceeding the %d-bit budget",
							id, b, om.msg, h.ID, cur, e.cfg.MaxMessageBits)
					}
				}
				dirBit := int64(0)
				if id > h.To {
					dirBit = 1
				}
				di := 2*int64(h.ID) + dirBit
				if dirSeen[di] != cur {
					dirSeen[di] = cur
					dirLoad[di] = 0
				}
				dirLoad[di]++
				if dirLoad[di] > maxLoad {
					maxLoad = dirLoad[di]
				}
				if e.cfg.StrictCongest && dirLoad[di] > 1 {
					return nil, Computef("simnet: strict CONGEST violation on edge %d (round %d)", h.ID, cur)
				}
				if e.cfg.RecordTrace {
					res.Trace = append(res.Trace, TraceEntry{cur, h.ID, byte(dirBit)})
				}
				switch {
				case e.halted[h.To]:
					met.DroppedAfterHalt++
				case e.cfg.Model == Sleeping && e.awakeEpoch[h.To] != cur:
					met.LostMessages++
				default:
					dst := &e.nodes[h.To]
					dst.inbox = append(dst.inbox, Inbound{
						From:    id,
						NbIndex: int(rev[om.nbIndex]),
						Round:   cur,
						Tag:     om.tag,
						Msg:     om.msg,
					})
					if e.kind[h.To] == yieldPark {
						e.kind[h.To] = yieldRun
						e.wakeRound[h.To] = cur + 1
						e.seq[h.To]++
						parked--
						q.push(cur+1, h.To, e.seq[h.To])
					}
				}
			}
			ns.outbox = ns.outbox[:0]
		}
		met.StrictRounds += maxLoad - 1
	}
	met.Rounds = cur + 1
	met.StrictRounds += met.Rounds
	for _, c := range met.PerEdgeMessages {
		if c > met.MaxEdgeMessages {
			met.MaxEdgeMessages = c
		}
	}
	for _, a := range met.PerNodeAwake {
		if a > met.MaxAwake {
			met.MaxAwake = a
		}
	}
	if e.cfg.RecordSpans {
		met.Spans = e.ledger()
	}
	return res, nil
}

// shutdown terminates any still-live node coroutines: stop makes the
// coroutine's pending (or next) yield return false, which Ctx.yield turns
// into an errKilled unwind. Safe on halted and never-started nodes.
func (e *Engine) shutdown() {
	for i := range e.nodes {
		e.nodes[i].stop()
	}
}

type killSentinel struct{}

func (killSentinel) Error() string { return "simnet: engine shut down" }

var errKilled error = killSentinel{}

// ComputeError reports well-formed input that a run cannot process: the
// round cap overrun, a strict-CONGEST budget violation, or an option
// combination the algorithm rejects. The algorithm layers above simnet
// (core, sched, the dsssp API) return the same type, so callers classify
// every such rejection with one errors.As (the serving layer answers it
// with 422).
type ComputeError struct{ msg string }

func (e *ComputeError) Error() string { return e.msg }

// Computef formats a ComputeError.
func Computef(format string, args ...any) error {
	return &ComputeError{msg: fmt.Sprintf(format, args...)}
}
