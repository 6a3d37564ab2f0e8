package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/netsim"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// nodeClasses are the node-handler layers, named by module.
var nodeClasses = []string{
	"vmsc", "vlr", "hlr", "gprs.sgsn", "gprs.ggsn", "h323.gk",
	"h323.terminal", "gsm.bsc", "gsm.bts", "gsm.ms", "ipnet.router",
}

// recvSpan names each class's Receive span without allocating per call.
var recvSpan = func() []string {
	out := make([]string, len(nodeClasses))
	for i, c := range nodeClasses {
		out[i] = c + ".Receive"
	}
	return out
}()

func classOf(n sim.Node) int {
	if w, ok := n.(*timedNode); ok {
		n = w.Node
	}
	switch n.(type) {
	case *vmsc.VMSC:
		return 0
	case *vlr.VLR:
		return 1
	case *hlr.HLR:
		return 2
	case *gprs.SGSN:
		return 3
	case *gprs.GGSN:
		return 4
	case *h323.Gatekeeper:
		return 5
	case *h323.Terminal:
		return 6
	case *gsm.BSC:
		return 7
	case *gsm.BTS:
		return 8
	case *gsm.MS:
		return 9
	case *ipnet.Router:
		return 10
	}
	return -1
}

// codecPkg is one wire codec, timed through its public entry points.
type codecPkg struct {
	name   string // module name, the metric prefix
	family string // netsim.WireSize family ("" = found inside GTP T-PDUs)
	append func([]byte, sim.Message) ([]byte, error)
	decode func([]byte) (sim.Message, error)
}

const rtpPkg = 5 // index of rtp in codecPkgs

var codecPkgs = []codecPkg{
	{"sigmap", "MAP", sigmap.Append, sigmap.Unmarshal},
	{"gtp", "GTP", gtp.Append, gtp.Unmarshal},
	{"gb", "Gb", gb.Append, gb.Unmarshal},
	{"q931", "Q.931", q931.Append, q931.Unmarshal},
	{"h323", "RAS", h323.AppendRAS, h323.UnmarshalRAS},
	{"rtp", "",
		func(dst []byte, m sim.Message) ([]byte, error) { return m.(rtp.Packet).AppendTo(dst), nil },
		func(b []byte) (sim.Message, error) { return rtp.Unmarshal(b) }},
	{"gsm", "GSM", gsm.Append, gsm.Unmarshal},
}

// maxSamples bounds the captured instances per message type.
const maxSamples = 16

// msgType is one message type the traced ops carried.
type msgType struct {
	name    string
	pkg     int // index into codecPkgs, -1 = not a timed codec
	count   uint64
	samples []sim.Message // decoded from their own encodings, so they alias nothing live
	wire    [][]byte
}

type nodeStat struct {
	recv uint64
	busy time.Duration
}

// tracing is the traced run's instrumentation: the engine Tracer, the node
// Receive decorator, the span log, and the per-layer results.
type tracing struct {
	on    bool // the current op is traced
	spans spanLog

	ops     int
	opWall  time.Duration // traced ops' wall time
	runWall time.Duration // engine run time within traced ops
	wrapped bool          // node Receive calls were timed

	env        *sim.Env
	cls        map[sim.NodeID]int
	deliveries uint64
	cross      uint64
	// engineDelivered is Env.Delivered over the traced ops, the check on
	// the tracer's delivery classification.
	engineDelivered uint64
	nodes           []nodeStat
	ifaces          map[string]uint64
	types           map[reflect.Type]*msgType
	rtpType         *msgType
	selfTime        time.Duration // spent inside Trace itself

	metrics map[string]float64
	notes   []string
}

func newTracing() *tracing {
	return &tracing{
		spans:   newSpanLog(),
		cls:     make(map[sim.NodeID]int),
		nodes:   make([]nodeStat, len(nodeClasses)),
		ifaces:  make(map[string]uint64),
		types:   make(map[reflect.Type]*msgType),
		rtpType: &msgType{name: "rtp.Packet", pkg: rtpPkg},
		metrics: make(map[string]float64),
	}
}

// attach makes t the tracer of env for the current traced op.
func (t *tracing) attach(env *sim.Env) {
	t.env = env
	env.SetTracer(t)
}

// Trace implements sim.Tracer. The engine calls it for every delivery and
// every encapsulated message a node notes; a delivery is a call whose
// endpoints are linked over the named interface.
func (t *tracing) Trace(_ time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	if !t.on {
		return
	}
	t0 := time.Now()
	if l := t.env.LinkBetween(from, to); l != nil && l.Iface == iface {
		t.deliveries++
		if c := t.class(to); c >= 0 {
			t.nodes[c].recv++
		}
		if t.env.ShardOf(from) != t.env.ShardOf(to) {
			t.cross++
		}
	}
	t.ifaces[iface]++
	t.observe(msg)
	t.selfTime += time.Since(t0)
}

func (t *tracing) class(id sim.NodeID) int {
	c, ok := t.cls[id]
	if !ok {
		c = classOf(t.env.Node(id))
		t.cls[id] = c
	}
	return c
}

// observe counts msg by type and keeps the first instances of each type
// for timing its codec after the loop.
func (t *tracing) observe(msg sim.Message) {
	switch m := msg.(type) {
	case *gtp.TPDU:
		msg = *m
	case *gb.ULUnitdata:
		msg = *m
	case *gb.DLUnitdata:
		msg = *m
	}
	typ := reflect.TypeOf(msg)
	mt := t.types[typ]
	if mt == nil {
		mt = &msgType{name: typ.String(), pkg: -1}
		if _, fam, ok := netsim.WireSize(msg); ok {
			for i, p := range codecPkgs {
				if p.family == fam {
					mt.pkg = i
				}
			}
		}
		t.types[typ] = mt
	}
	mt.count++
	if mt.pkg >= 0 && len(mt.samples) < maxSamples {
		mt.capture(msg)
	}
	if tp, ok := msg.(gtp.TPDU); ok {
		if pkt, err := ipnet.Unmarshal(tp.Payload); err == nil && pkt.SrcPort == ipnet.PortRTP {
			t.rtpType.count++
			if len(t.rtpType.samples) < maxSamples {
				if p, err := rtp.Unmarshal(pkt.Payload); err == nil {
					t.rtpType.capture(p)
				}
			}
		}
	}
}

// capture keeps an independent copy of msg: its own encoding, and the
// message decoded back from that encoding.
func (mt *msgType) capture(msg sim.Message) {
	p := codecPkgs[mt.pkg]
	b, err := p.append(nil, msg)
	if err != nil {
		return
	}
	dec, err := p.decode(b)
	if err != nil {
		return
	}
	mt.samples = append(mt.samples, dec)
	mt.wire = append(mt.wire, b)
}

// timedNode decorates a node so a traced op times each Receive.
type timedNode struct {
	sim.Node
	t     *tracing
	class int
}

func (t *tracing) wrap(n sim.Node) sim.Node {
	c := classOf(n)
	if c < 0 {
		return n
	}
	t.wrapped = true
	return &timedNode{Node: n, t: t, class: c}
}

func (n *timedNode) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	t := n.t
	if !t.on {
		n.Node.Receive(env, from, iface, msg)
		return
	}
	t0 := time.Now()
	n.Node.Receive(env, from, iface, msg)
	d := time.Since(t0)
	t.nodes[n.class].busy += d
	t.spans.add(recvSpan[n.class], t.spans.open, t0, d)
}

// finish turns the counts gathered over the traced ops, the untraced ops'
// runtime deltas, and direct timings of the codec and slab entry points
// into the per-layer metrics.
func (t *tracing) finish(cfg *config, l *loop, res *result) {
	m := t.metrics
	ops := float64(t.ops)
	if ops == 0 {
		ops = 1
		t.notes = append(t.notes, "no traced op ran: every per-op count reads 0")
	}
	untraced := float64(len(res.OpWall))

	if res.Builds > 0 {
		m["netsim.build_ms"] = ms(res.BuildWall) / float64(res.Builds)
	} else {
		t.notes = append(t.notes, "netsim.build_ms: not on path (the benchmark assembles this topology from node constructors)")
	}
	m["sim.delivered_per_op"] = float64(res.Delivered) / untraced
	if res.Delivered > 0 {
		m["sim.ns_per_delivery"] = float64(res.RunWall) / float64(res.Delivered)
	}
	m["sim.cross_shard_per_op"] = float64(t.cross) / ops
	var busy time.Duration
	for c, name := range nodeClasses {
		st := t.nodes[c]
		m[name+".recv_per_op"] = float64(st.recv) / ops
		busy += st.busy
		if st.recv == 0 {
			t.notes = append(t.notes, name+": not on path")
			continue
		}
		if t.wrapped {
			m[name+".busy_ms"] = ms(st.busy) / ops
			m[name+".ns_per_recv"] = float64(st.busy) / float64(st.recv)
		}
	}
	if t.wrapped {
		m["sim.self_ms"] = ms(t.runWall-busy-t.selfTime) / ops
	} else {
		t.notes = append(t.notes, "node handlers: netsim.BuildVGPRS builds these nodes, so Receive cannot be wrapped from outside; recv_per_op is counted, busy_ms, ns_per_recv and sim.self_ms read 0")
	}

	t.timeCodecs(ops)
	if err := t.timeSlab(cfg, l.population); err != nil {
		res.Attempted++ // the slab timing's own check, counted as one more op
		res.fail("%v", err)
	}

	if l.rtOps > 0 {
		n := float64(l.rtOps)
		rt := l.rtTotals
		m["heap.alloc_bytes_per_op"] = float64(rt.allocBytes) / n
		m["heap.mallocs_per_op"] = float64(rt.mallocs) / n
		m["gc.cycles_per_op"] = float64(rt.gcCycles) / n
		m["gc.pause_ms"] = float64(rt.pauseNs) / 1e6 / n
		if rt.totalCPU > 0 {
			m["gc.cpu_fraction"] = rt.gcCPU / rt.totalCPU
		}
	}
	if t.ops > 0 && len(res.OpWall) > 0 {
		m["trace.overhead_ms"] = ms(t.opWall)/float64(t.ops) - ms(sum(res.OpWall))/untraced
	}
	if t.deliveries != t.engineDelivered {
		t.notes = append(t.notes, fmt.Sprintf("tracer counted %d deliveries, engine %d", t.deliveries, t.engineDelivered))
	}
}

// timeCodecs times each codec's Append and Unmarshal over the message mix
// the traced ops carried, weighting each message type by its count.
func (t *tracing) timeCodecs(ops float64) {
	byPkg := make([][]*msgType, len(codecPkgs))
	for _, mt := range t.types {
		if mt.pkg >= 0 {
			byPkg[mt.pkg] = append(byPkg[mt.pkg], mt)
		}
	}
	byPkg[rtpPkg] = append(byPkg[rtpPkg], t.rtpType)
	buf := make([]byte, 0, 4096)
	for i, p := range codecPkgs {
		types := byPkg[i]
		sort.Slice(types, func(a, b int) bool { return types[a].name < types[b].name })
		var count uint64
		var enc, dec, size float64
		for _, mt := range types {
			if len(mt.samples) == 0 {
				continue
			}
			reps := 4096/len(mt.samples) + 1
			sp := t.spans.begin(p.name+".Append", -1)
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				for _, s := range mt.samples {
					buf, _ = p.append(buf[:0], s)
				}
			}
			encNs := float64(time.Since(t0)) / float64(reps*len(mt.samples))
			t.spans.end(sp)
			sp = t.spans.begin(p.name+".Unmarshal", -1)
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				for _, w := range mt.wire {
					_, _ = p.decode(w)
				}
			}
			decNs := float64(time.Since(t0)) / float64(reps*len(mt.wire))
			t.spans.end(sp)
			var bytes int
			for _, w := range mt.wire {
				bytes += len(w)
			}
			w := float64(mt.count)
			count += mt.count
			enc += w * encNs
			dec += w * decNs
			size += w * float64(bytes) / float64(len(mt.wire))
		}
		t.metrics[p.name+".msgs_per_op"] = float64(count) / ops
		if count == 0 {
			t.notes = append(t.notes, p.name+": not on path")
			continue
		}
		t.metrics[p.name+".encode_ns"] = enc / float64(count)
		t.metrics[p.name+".decode_ns"] = dec / float64(count)
		t.metrics[p.name+".bytes_per_msg"] = size / float64(count)
	}
}

// slabRec stands in for a subscriber record: 128 bytes, keyed by a
// 64-bit identity.
type slabRec struct {
	key     uint64
	payload [15]uint64
}

// slabShards matches the stores in the network elements.
const slabShards = 8

// timeSlab measures the slab package at the workload's population: the
// heap bytes the first Alloc into a fresh sharded store allocates, and
// Alloc, Index.Get and Free per call. It fails if the index or the slab
// lose a record.
func (t *tracing) timeSlab(cfg *config, population int) error {
	const stores = 32
	fresh := make([]*slab.Sharded[slabRec], stores)
	for i := range fresh {
		fresh[i] = slab.NewSharded[slabRec](slabShards)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range fresh {
		s.Alloc(0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fresh)
	t.metrics["slab.first_insert_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / stores

	keys := make([]uint64, population)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	handles := make([]slab.Handle, population)
	var allocT, getT, freeT time.Duration
	calls, lost := 0, 0
	sp := t.spans.begin("slab", -1)
	for calls < 200_000 {
		s := slab.NewSharded[slabRec](slabShards)
		x := slab.NewIndex[uint64](slab.HashUint64)
		t0 := time.Now()
		for i, k := range keys {
			h, r := s.Alloc(int(k % slabShards))
			r.key = k
			handles[i] = h
		}
		allocT += time.Since(t0)
		for i, k := range keys {
			x.Put(k, handles[i])
		}
		rng.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			handles[i], handles[j] = handles[j], handles[i]
		})
		t0 = time.Now()
		for i, k := range keys {
			if x.Get(k) != handles[i] {
				lost++
			}
		}
		getT += time.Since(t0)
		t0 = time.Now()
		for _, h := range handles {
			if !s.Free(h) {
				lost++
			}
		}
		freeT += time.Since(t0)
		calls += population
	}
	t.spans.end(sp)
	t.metrics["slab.alloc_ns"] = float64(allocT) / float64(calls)
	t.metrics["slab.index_get_ns"] = float64(getT) / float64(calls)
	t.metrics["slab.free_ns"] = float64(freeT) / float64(calls)
	if lost > 0 {
		return fmt.Errorf("slab timing: %d index lookups or frees missed their record", lost)
	}
	return nil
}
