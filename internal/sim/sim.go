// Package sim provides a deterministic discrete-event simulation engine.
//
// Every network element in the vGPRS reproduction (MS, BTS, BSC, VMSC, SGSN,
// GGSN, gatekeeper, ...) is a Node registered with an Env. Nodes exchange
// typed protocol messages over Links that model a named interface (Um, Abis,
// A, Gb, ...) with a fixed one-way latency. The engine runs on a virtual
// clock, so latency measurements are exact and runs are reproducible from a
// seed.
//
// # Sharding
//
// The engine can partition its event loop across shards (NewShardedEnv),
// each with its own event heap, clock, and worker goroutine. Shards
// synchronize conservatively: the minimum latency of any cross-shard link is
// the lookahead, and every shard may safely process all events strictly
// earlier than the globally earliest pending event plus that lookahead,
// because no message sent during the window can arrive inside it. Cross-
// shard deliveries are exchanged through per-shard outboxes at the barrier
// between windows, so the hot path stays lock-free and allocation-free.
//
// Determinism is independent of the shard count. Every event carries a
// 64-bit key combining the scheduling context (the node whose dispatch
// created it, or the root context for events scheduled from outside a run)
// with that context's private emission counter; ties on the timestamp break
// on the key. Random draws likewise come from per-node streams derived from
// the root seed (see rng.go). Both the key and the draw sequence depend only
// on the topology and the seed — never on how nodes are assigned to shards —
// so the same seed produces a byte-identical trace and identical metrics at
// any shard count, including one. Node state is only ever touched from its
// own shard; nodes on different shards must share no mutable state outside
// the message layer.
//
// Concurrency-sensitive state inside nodes (tables shared with inspection
// APIs) is still guarded by mutexes so nodes remain safe to inspect from
// tests while an Env is not running.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// NodeID identifies a network element within an Env.
type NodeID string

// Message is a protocol message exchanged between nodes. Every protocol
// package defines typed messages implementing this interface; Name returns
// the wire-level message name used in the paper's figures (for example
// "MAP_UPDATE_LOCATION" or "RAS RRQ") so traces read like the paper.
type Message interface {
	Name() string
}

// Node is a simulated network element.
type Node interface {
	// ID returns the node's unique identifier within its Env.
	ID() NodeID
	// Receive handles a message delivered over the named interface.
	// It runs on the node's shard goroutine; implementations may call back
	// into the Env (Send, After) but must not block.
	Receive(env *Env, from NodeID, iface string, msg Message)
}

// Tracer observes every message delivery. The trace package provides a
// recording implementation; a nil tracer disables tracing.
type Tracer interface {
	Trace(at time.Duration, from, to NodeID, iface string, msg Message)
}

// ctrBits is the width of the per-context emission counter within an event
// key; the context index occupies the bits above it. 2^24 contexts times
// 2^40 emissions per context bound a single simulation.
const ctrBits = 40

// world is the state shared by every shard view of one simulation: node and
// link registries, per-context key counters and RNG streams, and the shard
// runtime. Exactly one *Env exists per shard; the value returned by
// NewEnv/NewShardedEnv is shard 0's view and the user-facing handle.
type world struct {
	seed    int64
	nodes   map[NodeID]Node
	list    []Node // dense context index -> node; [0] is the root context
	idx     map[NodeID]int32
	ctr     []uint64     // per-context emission counters (event key tie-break)
	rngs    []*rand.Rand // per-context RNG streams, created on first draw
	shardOf []int32      // per-context home shard
	links   map[linkKey]*Link
	tracer  Tracer
	shards  []*Env
	running bool
	started bool
}

// Env is one shard's view of a simulation environment. All views share the
// node/link registries and the tracer; the event queue, clock, and delivery
// counter are per-shard. Topology construction and scheduling from outside a
// run may use any view (they are single-threaded); during a run each view is
// owned by its shard goroutine.
type Env struct {
	w      *world
	shard  int32
	queue  eventQueue
	now    time.Duration
	cur    int32  // context (node index) of the event being dispatched
	curKey uint64 // key of the event being dispatched (trace ordering)
	emit   uint32 // trace emissions within the current dispatch

	delivered uint64
	outbox    [][]event  // cross-shard sends buffered during a window, per dst shard
	trbuf     []traceRec // trace entries buffered during a sharded run
}

type linkKey struct {
	from, to NodeID
}

// Link is a unidirectional edge between two nodes. Connect creates both
// directions with the same properties.
type Link struct {
	From    NodeID
	To      NodeID
	Iface   string
	Latency time.Duration
	// Jitter, when positive, adds a uniformly distributed extra delay in
	// [0, Jitter) to each delivery. Jitter draws from the sending node's
	// seeded stream, so runs remain reproducible.
	Jitter time.Duration
	// Loss, when positive, drops each delivery independently with this
	// probability (0..1), drawing from the sending node's seeded stream.
	Loss float64
	// Down marks the link as failed; sends over a down link are dropped
	// (and still traced with the "drop:" prefix on the interface name).
	Down bool
	// Dup, when positive, duplicates each (non-dropped) delivery
	// independently with this probability (0..1): the message is delivered
	// twice, each copy with its own jitter draw. Receivers must treat
	// signalling PDUs idempotently, which is exactly what the chaos tests
	// exercise.
	Dup float64

	// toIdx caches the destination's context index so the delivery hot
	// path resolves the node and its shard without a map lookup.
	toIdx int32
}

// NewEnv creates an empty single-shard simulation environment seeded for
// reproducibility.
func NewEnv(seed int64) *Env {
	return NewShardedEnv(seed, 1)
}

// NewShardedEnv creates an empty simulation environment whose event loop is
// partitioned across the given number of shards. The returned Env is shard
// 0's view and the handle all topology and run calls go through. Nodes
// default to shard 0; AssignShard moves them before the first run.
func NewShardedEnv(seed int64, shards int) *Env {
	if shards < 1 {
		shards = 1
	}
	w := &world{
		seed:    seed,
		nodes:   make(map[NodeID]Node),
		idx:     make(map[NodeID]int32),
		list:    []Node{nil},
		ctr:     make([]uint64, 1),
		rngs:    make([]*rand.Rand, 1),
		shardOf: []int32{0},
		links:   make(map[linkKey]*Link),
		shards:  make([]*Env, shards),
	}
	for i := range w.shards {
		sh := &Env{w: w, shard: int32(i)}
		if shards > 1 {
			sh.outbox = make([][]event, shards)
		}
		w.shards[i] = sh
	}
	return w.shards[0]
}

// SetTracer installs the message tracer. Passing nil disables tracing.
func (e *Env) SetTracer(t Tracer) { e.w.tracer = t }

// Tracer returns the currently installed tracer, or nil.
func (e *Env) Tracer() Tracer { return e.w.tracer }

// Rand returns the seeded random stream of the current scheduling context:
// the node whose event is being dispatched, or the root stream outside a
// run. Streams are derived per node from the root seed (see rng.go), so
// draws are reproducible and independent of the shard count.
func (e *Env) Rand() *rand.Rand { return e.ctxRand() }

func (e *Env) ctxRand() *rand.Rand {
	w := e.w
	r := w.rngs[e.cur]
	if r == nil {
		// Lazy creation keeps populations of nodes that never draw (the
		// common case) from paying a stream each. The slot is only ever
		// touched from the context's own shard, so this is race-free.
		r = rand.New(newStream(w.seed, e.cur))
		w.rngs[e.cur] = r
	}
	return r
}

// Now returns the current virtual time of this shard. Outside a run all
// shard clocks are synchronized, so the root view reports the global time.
func (e *Env) Now() time.Duration { return e.now }

// Delivered returns the total number of messages delivered so far across
// all shards.
func (e *Env) Delivered() uint64 {
	var total uint64
	for _, sh := range e.w.shards {
		total += sh.delivered
	}
	return total
}

// AddNode registers a node on shard 0. It panics if the node's ID is
// already taken: topology construction errors are programming errors, not
// runtime conditions.
func (e *Env) AddNode(n Node) {
	w := e.w
	id := n.ID()
	if _, ok := w.nodes[id]; ok {
		panic(fmt.Sprintf("sim: duplicate node ID %q", id))
	}
	w.nodes[id] = n
	w.idx[id] = int32(len(w.list))
	w.list = append(w.list, n)
	w.ctr = append(w.ctr, 0)
	w.rngs = append(w.rngs, nil)
	w.shardOf = append(w.shardOf, 0)
}

// Node returns the registered node with the given ID, or nil.
func (e *Env) Node(id NodeID) Node { return e.w.nodes[id] }

// Nodes returns every registered node in registration order — the order
// that fixes each node's event-key context and RNG stream. The slice is
// shared with the environment and must not be modified.
func (e *Env) Nodes() []Node {
	l := e.w.list
	return l[1:len(l):len(l)]
}

// ShardCount returns the number of shards the event loop is partitioned
// across (1 for a sequential environment).
func (e *Env) ShardCount() int { return len(e.w.shards) }

// ShardOf returns the shard the node is assigned to. It panics on an
// unknown node.
func (e *Env) ShardOf(id NodeID) int {
	i, ok := e.w.idx[id]
	if !ok {
		panic(fmt.Sprintf("sim: ShardOf unknown node %q", id))
	}
	return int(e.w.shardOf[i])
}

// AssignShard moves a node to the given shard. Assignments must be complete
// before anything is scheduled: a node's pending events live in its shard's
// queue, so reassigning later would strand them. Timers the node schedules
// run on its shard; nodes on different shards must not share mutable state
// outside the message layer.
func (e *Env) AssignShard(id NodeID, shard int) {
	w := e.w
	i, ok := w.idx[id]
	if !ok {
		panic(fmt.Sprintf("sim: AssignShard of unknown node %q", id))
	}
	if shard < 0 || shard >= len(w.shards) {
		panic(fmt.Sprintf("sim: AssignShard %q to shard %d of %d", id, shard, len(w.shards)))
	}
	if w.started {
		panic("sim: AssignShard after the simulation has started")
	}
	if e.Pending() > 0 {
		panic("sim: AssignShard with events already scheduled")
	}
	w.shardOf[i] = int32(shard)
}

// Connect creates a bidirectional link between a and b over the named
// interface with the given one-way latency. Both endpoints must already be
// registered. It returns the two unidirectional links so callers can adjust
// jitter or fail one direction.
func (e *Env) Connect(a, b NodeID, iface string, latency time.Duration) (ab, ba *Link) {
	w := e.w
	for _, id := range []NodeID{a, b} {
		if _, ok := w.nodes[id]; !ok {
			panic(fmt.Sprintf("sim: Connect references unknown node %q", id))
		}
	}
	ab = &Link{From: a, To: b, Iface: iface, Latency: latency, toIdx: w.idx[b]}
	ba = &Link{From: b, To: a, Iface: iface, Latency: latency, toIdx: w.idx[a]}
	w.links[linkKey{a, b}] = ab
	w.links[linkKey{b, a}] = ba
	return ab, ba
}

// LinkBetween returns the unidirectional link from a to b, or nil.
func (e *Env) LinkBetween(a, b NodeID) *Link { return e.w.links[linkKey{a, b}] }

// HasLink reports whether a bidirectional link exists between a and b.
func (e *Env) HasLink(a, b NodeID) bool {
	_, ab := e.w.links[linkKey{a, b}]
	_, ba := e.w.links[linkKey{b, a}]
	return ab && ba
}

// Neighbors returns the IDs of all nodes directly linked from id, sorted
// lexicographically so the result is deterministic regardless of link
// insertion order.
func (e *Env) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for k := range e.w.links {
		if k.from == id {
			out = append(out, k.to)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nextKey mints the total-order key for an event scheduled by the given
// context: the context index in the high bits, its private emission counter
// below. Keys depend only on the deterministic per-context dispatch
// sequence, never on shard assignment, which is what makes the engine's
// event order identical at any shard count.
func (w *world) nextKey(ctx int32) uint64 {
	w.ctr[ctx]++
	return uint64(ctx)<<ctrBits | w.ctr[ctx]
}

// push routes a scheduled event to the destination shard's queue. During a
// run, cross-shard events go through this shard's outbox and are merged at
// the next window barrier; everything else lands in the heap directly.
func (e *Env) push(ev event, dst int32) {
	if dst == e.shard || !e.w.running {
		e.w.shards[dst].queue.push(ev)
		return
	}
	e.outbox[dst] = append(e.outbox[dst], ev)
}

// Send delivers msg from one node to another over the link between them.
// Delivery is scheduled after the link latency (plus jitter, if configured).
// Send panics if no link exists: sending over a nonexistent interface is a
// topology bug the figure tests must surface loudly.
func (e *Env) Send(from, to NodeID, msg Message) {
	w := e.w
	link := w.links[linkKey{from, to}]
	if link == nil {
		panic(fmt.Sprintf("sim: no link %s -> %s for message %s", from, to, msg.Name()))
	}
	if link.Down || (link.Loss > 0 && e.ctxRand().Float64() < link.Loss) {
		if w.tracer != nil {
			e.trace(e.now, from, to, "drop:"+link.Iface, msg)
		}
		return
	}
	// Fault draws happen in a fixed order (loss, then duplication, then one
	// jitter draw per copy) so a seeded run replays identically.
	copies := 1
	if link.Dup > 0 && e.ctxRand().Float64() < link.Dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delay := link.Latency
		if link.Jitter > 0 {
			delay += time.Duration(e.ctxRand().Int63n(int64(link.Jitter)))
		}
		// Delivery is the engine's steady state: schedule a typed record
		// rather than a closure so the hot path performs zero heap
		// allocations.
		e.push(event{
			at: e.now + delay, seq: w.nextKey(e.cur), kind: evDeliver,
			ctx: link.toIdx, from: from, to: to, link: link, msg: msg,
		}, w.shardOf[link.toIdx])
	}
}

// dispatch runs one popped event on its shard.
func (e *Env) dispatch(ev *event) {
	e.cur = ev.ctx
	e.curKey = ev.seq
	e.emit = 0
	switch ev.kind {
	case evDeliver:
		dst := e.w.list[ev.ctx]
		if dst == nil {
			return
		}
		if e.w.tracer != nil {
			e.trace(e.now, ev.from, ev.to, ev.link.Iface, ev.msg)
		}
		e.delivered++
		dst.Receive(e, ev.from, ev.link.Iface, ev.msg)
	case evTimerArg:
		ev.argFn(ev.arg)
	default:
		ev.fn()
	}
}

// Note records an application-level message in the trace without delivering
// anything: protocol endpoints call it when they send or decode a message
// that rides encapsulated inside lower layers (a Q.931 Setup inside
// TCP/GTP/Gb, a RAS RRQ inside UDP). This is what lets recorded traces show
// the paper's logical arrows (VMSC -> GK "RAS RRQ") alongside the physical
// encapsulation hops.
func (e *Env) Note(from, to NodeID, iface string, msg Message) {
	e.trace(e.now, from, to, iface, msg)
}

// After schedules fn to run at Now()+d on the scheduling context's shard.
// Nodes use it for protocol timers (paging response timers, PDP activation
// timeouts, RTP packetisation ticks); a timer scheduled during a node's
// dispatch runs on that node's shard. Timers scheduled from outside a run
// belong to the root context and run on shard 0 — in a sharded environment
// their callbacks must only touch shard-0 state (see AfterNode).
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn)
}

func (e *Env) schedule(at time.Duration, fn func()) {
	e.queue.push(event{at: at, seq: e.w.nextKey(e.cur), kind: evTimer, ctx: e.cur, fn: fn})
}

// AfterArg schedules fn(arg) to run at Now()+d. Unlike After it takes a
// plain function plus its argument, so callers with many outstanding timers
// (the MAP dialogue manager) can schedule a package-level function without
// allocating a fresh closure per timer.
func (e *Env) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.queue.push(event{at: e.now + d, seq: e.w.nextKey(e.cur), kind: evTimerArg, ctx: e.cur, argFn: fn, arg: arg})
}

// AfterNode schedules fn to run at Now()+d on the named node's shard, in
// that node's scheduling context. The callback receives that shard's Env
// view — the one it must use for any Send/After calls, since the caller's
// view may belong to a different shard. Scenario drivers use AfterNode from
// outside a run to script state changes that must be ordered with a
// specific shard's clock (the chaos harness toggling link faults, for
// example). During a run it may only target the calling shard.
func (e *Env) AfterNode(id NodeID, d time.Duration, fn func(*Env)) {
	w := e.w
	i, ok := w.idx[id]
	if !ok {
		panic(fmt.Sprintf("sim: AfterNode of unknown node %q", id))
	}
	dst := w.shardOf[i]
	if w.running && dst != e.shard {
		panic("sim: AfterNode across shards during a run")
	}
	if d < 0 {
		d = 0
	}
	sh := w.shards[dst]
	sh.queue.push(event{at: e.now + d, seq: w.nextKey(i), kind: evTimer, ctx: i,
		fn: func() { fn(sh) }})
}

// NextRTO advances a retransmission timeout one step: binary exponential
// backoff capped at 8x the initial value (TCP-style bounded backoff, so
// large retry budgets keep probing instead of going silent for the rest of
// the run). Every retransmitting plane in the stack paces itself with this
// so budgets compose predictably.
func NextRTO(cur, initial time.Duration) time.Duration {
	next := cur * 2
	if max := initial * 8; next > max {
		return max
	}
	return next
}

// RetryDeadline returns the virtual time between a request's first
// transmission and its retry budget exhausting, for a schedule of retries
// retransmissions paced by NextRTO from the given initial RTO. For budgets
// of three or fewer this is the classic (2^(retries+1)-1)*rto; beyond that
// the cap makes it linear.
func RetryDeadline(rto time.Duration, retries int) time.Duration {
	var total time.Duration
	cur := rto
	for i := 0; i <= retries; i++ {
		total += cur
		cur = NextRTO(cur, rto)
	}
	return total
}

// Run processes events until the queue is empty. It returns the virtual time
// at which the simulation quiesced.
func (e *Env) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline. A negative deadline
// means run to quiescence. Events scheduled during the run are processed if
// they fall within the deadline. It returns the current virtual time.
//
// On a sharded environment this runs the conservative-lookahead parallel
// loop: see shard.go.
func (e *Env) RunUntil(deadline time.Duration) time.Duration {
	w := e.w
	if w.running {
		panic("sim: re-entrant Run")
	}
	w.running = true
	w.started = true
	defer func() { w.running = false }()
	if len(w.shards) == 1 {
		e.runLocal(deadline)
	} else {
		w.runSharded(deadline)
	}
	return e.now
}

// runLocal is the sequential event loop used by single-shard environments.
func (e *Env) runLocal(deadline time.Duration) {
	for {
		at, ok := e.queue.peekAt()
		if !ok {
			// Idle time still passes: a bounded run leaves the clock at
			// the deadline so time-based state (expiries, TTLs) observes
			// the full interval.
			if deadline >= 0 && deadline > e.now {
				e.now = deadline
			}
			break
		}
		if deadline >= 0 && at > deadline {
			e.now = deadline
			break
		}
		ev, _ := e.queue.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatch(&ev)
	}
	e.cur = 0
}

// Step processes exactly one pending event — the globally earliest by
// (timestamp, key) across all shards — returning false if none remain. Step
// is sequential regardless of the shard count: it is the debugging and
// test-harness interface, not the performance path.
func (e *Env) Step() bool {
	w := e.w
	best := (*Env)(nil)
	var bat time.Duration
	var bseq uint64
	for _, sh := range w.shards {
		at, seq, ok := sh.queue.peekKey()
		if !ok {
			continue
		}
		if best == nil || at < bat || (at == bat && seq < bseq) {
			best, bat, bseq = sh, at, seq
		}
	}
	if best == nil {
		return false
	}
	ev, _ := best.queue.pop()
	// Sequential stepping keeps one logical clock: every shard observes the
	// event's time.
	for _, sh := range w.shards {
		if ev.at > sh.now {
			sh.now = ev.at
		}
	}
	best.dispatch(&ev)
	best.cur = 0
	w.started = true
	return true
}

// Pending returns the number of queued events across all shards.
func (e *Env) Pending() int {
	total := 0
	for _, sh := range e.w.shards {
		total += sh.queue.len()
	}
	return total
}
