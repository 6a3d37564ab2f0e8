// Package netsim assembles complete simulated networks for the experiments:
// the vGPRS architecture of paper Fig 2(b) (BuildVGPRS), the international
// roaming configurations of Figs 7-8 (BuildRoamingGSM, BuildRoamingVGPRS),
// the inter-system handoff configurations of Fig 9 (BuildHandoff to a
// legacy MSC, BuildHandoffVMSC between two VMSCs), the two-area, multi-
// region and day-in-the-life workloads (BuildTwoVMSC, BuildMultiRegion,
// BuildDay), and the core the scale runs drive (BuildScale). The tr23923
// package builds the TR 23.923 baseline on the same substrate. Builders
// return handles to every element so tests and benches can drive calls and
// inspect state.
//
// Every builder writes its network as one topology spec (topology.go): the
// nodes in registration order with their shards, the links by interface,
// and the subscribers to provision. A link takes its interface class's
// latency from Latencies unless the spec overrides it. One function builds
// every spec. Registration order fixes each node's event-key context and
// RNG stream, so it is part of the topology: a golden test pins it, with
// the shards and links, for every builder. Residual and Resident audit a
// built network by walking its nodes.
package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// Latencies is the one-way delay profile for every interface class.
type Latencies struct {
	Um   time.Duration // air interface
	Abis time.Duration
	A    time.Duration
	SS7  time.Duration // MAP interfaces (B, C, D, E, Gr, Gc)
	Gb   time.Duration
	Gn   time.Duration
	Gi   time.Duration
	LAN  time.Duration // H.323 network links
	Intl time.Duration // international trunks
	Natl time.Duration // national trunks
}

// DefaultLatencies reflects period-plausible one-way delays.
func DefaultLatencies() Latencies {
	return Latencies{
		Um:   10 * time.Millisecond,
		Abis: 2 * time.Millisecond,
		A:    time.Millisecond,
		SS7:  5 * time.Millisecond,
		Gb:   2 * time.Millisecond,
		Gn:   time.Millisecond,
		Gi:   time.Millisecond,
		LAN:  time.Millisecond,
		Intl: 40 * time.Millisecond,
		Natl: 3 * time.Millisecond,
	}
}

// VGPRSOptions parameterises BuildVGPRS.
type VGPRSOptions struct {
	Seed int64
	// NumMS is the number of mobile stations (default 1).
	NumMS int
	// NumTerminals is the number of H.323 terminals (default 1).
	NumTerminals int
	// Latencies is the delay profile (default DefaultLatencies).
	Latencies *Latencies
	// DeactivateIdlePDP enables the §6 ablation at the VMSC.
	DeactivateIdlePDP bool
	// AuthDisabled skips GSM authentication and ciphering at the VLR —
	// the DESIGN.md §5 ablation isolating their registration-latency
	// contribution.
	AuthDisabled bool
	// Talk makes MSs and terminals generate speech while in calls.
	Talk bool
	// DTX gates MS uplink speech with the Brady talk-spurt model
	// (silence suppression).
	DTX bool
	// AutoAnswerDelay is how long called parties ring before answering.
	// Zero means 200 ms.
	AutoAnswerDelay time.Duration
	// TCHCapacity bounds the BSC's dedicated channels (0 = default 64).
	TCHCapacity int
	// SGSNMaxContexts bounds PDP contexts at the SGSN (0 = unlimited);
	// failure-injection tests use it to exhaust the voice context.
	SGSNMaxContexts int
	// NoTrace disables trace recording (for large load benches).
	NoTrace bool
	// Shards partitions the event loop across goroutines (0 or 1 =
	// sequential). The default partition keeps the SS7/GPRS core and the
	// H.323 plane on shard 0 and moves the radio access network (BTS, BSC,
	// MSs) to shard 1; the A interface is then the only cross-shard link
	// and its latency the synchronization lookahead. Shard counts above 2
	// leave the extra shards empty on this single-region topology — results
	// are identical at any count, which is exactly what the determinism
	// tests lock in. Multi-region scaling lives in BuildMultiRegion.
	Shards int
	// GKMutate, when set, adjusts the gatekeeper configuration before
	// construction (e.g. to enforce a registration TTL).
	GKMutate func(*h323.GatekeeperConfig)
	// VMSCMutate, when set, adjusts the VMSC configuration before
	// construction (scenario extensions add handover targets and trunks).
	VMSCMutate func(*vmsc.Config)
	// Sig, when set, overrides the signalling retransmission profile of
	// every network element at once. The chaos harness uses it to swap
	// the conservative defaults for a loss-tolerant profile.
	Sig *SigProfile
}

// SigProfile is a network-wide signalling retransmission profile: RTO and
// Retries drive the single-hop MAP/GTP/GMM planes, H323Retries the RAS and
// Q.931 planes whose PDUs tunnel across many links end-to-end.
type SigProfile struct {
	RTO         time.Duration
	Retries     int
	H323Retries int
}

// VGPRSNet is a fully wired vGPRS network (Fig 2(b)).
type VGPRSNet struct {
	Env *sim.Env
	Rec *trace.Recorder
	Dir *h323.Directory

	HLR  *hlr.HLR
	VLR  *vlr.VLR
	VMSC *vmsc.VMSC
	SGSN SGSNHandle
	GGSN GGSNHandle
	GK   *h323.Gatekeeper

	Router    *ipnet.Router
	BSC       *gsm.BSC
	MSs       []*gsm.MS
	Terminals []*h323.Terminal

	// Subscribers lists the provisioned (IMSI, MSISDN) pairs, index-
	// aligned with MSs.
	Subscribers []Subscriber

	// trunks are the trunk groups the topology created; dirBase is the
	// directory's binding count at build time (the static hosts).
	trunks  []*isup.TrunkGroup
	dirBase int
}

// Subscriber pairs the identities of one provisioned MS.
type Subscriber struct {
	IMSI   gsmid.IMSI
	MSISDN gsmid.MSISDN
	Ki     [16]byte
}

// SubscriberN builds the n-th test subscriber's identities.
func SubscriberN(n int) Subscriber {
	return Subscriber{
		IMSI:   gsmid.IMSI(fmt.Sprintf("46692%010d", n+1)),
		MSISDN: gsmid.MSISDN(fmt.Sprintf("8869%08d", n+1)),
		Ki:     [16]byte{byte(n + 1), 0x5A},
	}
}

// TerminalAlias is the n-th H.323 terminal's dialable number (domestic, so
// default profiles may call it).
func TerminalAlias(n int) gsmid.MSISDN {
	return gsmid.MSISDN(fmt.Sprintf("8862%08d", n+1))
}

// gkAddr is the gatekeeper's IP on the H.323 LAN.
var gkAddr = ipnet.MustAddr("192.168.1.1")

// area1Cell is the cell of the first (or only) VMSC area.
var area1Cell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}

// area1 addresses the first vGPRS service area: VLR-1, VMSC-1, SGSN-1,
// GGSN-1, BTS-1 and BSC-1 with the GI router and gatekeeper GK, homed on
// HLR, with the GGSN's dynamic addresses drawn from pool.
func area1(dir *h323.Directory, pool string, poolSize int) areaPlan {
	return areaPlan{
		id: func(role string) sim.NodeID {
			if role == "GI" || role == "GK" {
				return sim.NodeID(role)
			}
			return sim.NodeID(role + "-1")
		},
		hlr: "HLR", cc: "886", msrn: "88690000", cell: area1Cell,
		gk: gkAddr, pool: netip.MustParsePrefix(pool), poolSize: poolSize, dir: dir,
	}
}

// BuildVGPRS wires the complete vGPRS network of Fig 2(b):
//
//	MS ~Um~ BTS ~Abis~ BSC ~A~ VMSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ [GK, terminals]
//	         VMSC ~B~ VLR ~D~ HLR;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR
func BuildVGPRS(opts VGPRSOptions) *VGPRSNet {
	t := opts.topo()
	return vgprsTopo(t, opts, nil).finish(t)
}

// vgprsTopo lists the BuildVGPRS network into t and returns the handles it
// creates; extend is passed to newArea for VMSC-1.
func vgprsTopo(t *topo, opts VGPRSOptions, extend func(*vmsc.Config)) *VGPRSNet {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.NumTerminals == 0 {
		opts.NumTerminals = 1
	}
	if opts.AutoAnswerDelay == 0 {
		opts.AutoAnswerDelay = 200 * time.Millisecond
	}
	sig := opts.sig()
	n := &VGPRSNet{Dir: h323.NewDirectory()}
	n.HLR = hlr.New(hlr.Config{ID: "HLR", SigRTO: sig.RTO, SigRetries: sig.Retries})
	plan := area1(n.Dir, "10.1.1.0/24", 0)
	if opts.DeactivateIdlePDP {
		plan.static = make(map[gsmid.IMSI]string)
	}
	a := newArea(plan, &opts, extend)
	n.setArea(a)

	t.nodes = slices.Grow(t.nodes, 9+opts.NumMS+opts.NumTerminals)
	t.links = slices.Grow(t.links, 10+opts.NumMS+opts.NumTerminals)
	t.subs = slices.Grow(t.subs, opts.NumMS)

	// Default shard partition: radio access on shard 1, everything else
	// (SS7 core, GPRS core, H.323 plane) on shard 0.
	ran := 0
	if t.shards > 1 {
		ran = 1
	}
	t.add(0, n.HLR, a.VLR, a.VMSC, a.SGSN, a.GGSN, a.GI, a.GK)
	t.add(ran, a.BTS, a.BSC)
	a.wire(t, "HLR", 0)

	for i := 0; i < opts.NumMS; i++ {
		sub := SubscriberN(i)
		n.Subscribers = append(n.Subscribers, sub)
		if opts.DeactivateIdlePDP {
			// The ablation needs static addresses for network-initiated
			// activation (GSM 03.60 requirement the paper cites).
			addr := ipnet.MustAddr(fmt.Sprintf("10.1.2.%d", i+1))
			plan.static[sub.IMSI] = addr.String()
			a.GGSN.ProvisionStatic(addr, sub.IMSI)
			a.GI.AddPrefix(netip.PrefixFrom(addr, 32), "GGSN-1")
		}
		ms := newMS(sim.NodeID(fmt.Sprintf("MS-%d", i+1)), sub, "BTS-1", area1Cell.LAI, &opts)
		n.MSs = append(n.MSs, ms)
		t.add(ran, ms)
		t.link(ms.ID(), "BTS-1", "Um")
		t.provision(n.HLR, n.VMSC, sub)
	}

	for i := 0; i < opts.NumTerminals; i++ {
		termID := sim.NodeID(fmt.Sprintf("TERM-%d", i+1))
		addr := ipnet.MustAddr(fmt.Sprintf("192.168.1.%d", 10+i))
		term := h323.NewTerminal(h323.TerminalConfig{
			ID: termID, Alias: TerminalAlias(i), Addr: addr,
			Router: "GI", Gatekeeper: gkAddr, Dir: n.Dir,
			AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
			Talk:   opts.Talk,
			SigRTO: sig.RTO, SigRetries: sig.H323Retries,
		})
		n.Terminals = append(n.Terminals, term)
		n.Router.AddHost(addr, termID)
		n.Dir.Bind(addr, termID)
		t.add(0, term)
		t.link("GI", termID, "IP")
	}
	return n
}

// BuildScale wires the topology of the scale runs: the BuildVGPRS core
// with a GGSN pool sized for subs subscribers, every link at 50 µs and no
// tracing, driven by one load node in place of the radio access, MSs and
// terminals. With fullStack the load plays the BSC and every MS on the
// VMSC's A interface; without it the VMSC, GI router and gatekeeper are
// left out and the load plays the VMSC on the VLR's B and the SGSN's Gb
// interfaces. Either way it may also speak MAP to the VLR (the HLR's
// cancel role).
func BuildScale(seed int64, subs int, fullStack bool, load sim.Node) *VGPRSNet {
	const d = 50 * time.Microsecond
	lat := Latencies{Um: d, Abis: d, A: d, SS7: d, Gb: d, Gn: d, Gi: d, LAN: d, Intl: d, Natl: d}
	t := newTopo(seed, 1, false, &lat)
	n := &VGPRSNet{Dir: h323.NewDirectory(), HLR: hlr.New(hlr.Config{ID: "HLR"})}
	// The pool base sits on a /8 so a million dynamic PDP addresses count
	// up without leaving the routed prefix.
	a := newArea(area1(n.Dir, "10.0.0.0/8", subs+2), &VGPRSOptions{AuthDisabled: true}, nil)
	a.BTS, a.BSC = nil, nil
	if fullStack {
		t.add(0, n.HLR, a.VLR, a.VMSC, a.SGSN, a.GGSN, a.GI, a.GK, load)
		t.link(load.ID(), "VMSC-1", "A")
	} else {
		a.VMSC, a.GI, a.GK = nil, nil, nil
		t.add(0, n.HLR, a.VLR, a.SGSN, a.GGSN, load)
		t.link(load.ID(), "SGSN-1", "Gb")
	}
	t.link(load.ID(), "VLR-1", "B")
	a.wire(t, "HLR", 0)
	n.setArea(a)
	return n.finish(t)
}

// setArea records an area's element handles.
func (n *VGPRSNet) setArea(a *area) {
	n.VLR, n.VMSC, n.GK, n.Router, n.BSC = a.VLR, a.VMSC, a.GK, a.GI, a.BSC
	n.SGSN, n.GGSN = SGSNHandle{a.SGSN}, GGSNHandle{a.GGSN}
}

// finish builds the spec into n's environment.
func (n *VGPRSNet) finish(t *topo) *VGPRSNet {
	n.Env, n.Rec = t.build()
	n.trunks = t.trunks
	n.dirBase = n.Dir.Bound()
	return n
}

// topo starts the spec of a network built with these options.
func (o *VGPRSOptions) topo() *topo {
	return newTopo(o.Seed, o.Shards, !o.NoTrace, o.Latencies)
}

// sig returns the signalling retransmission profile (zero = defaults).
func (o *VGPRSOptions) sig() SigProfile {
	if o.Sig != nil {
		return *o.Sig
	}
	return SigProfile{}
}

// RegisterAll powers on every MS and every terminal and runs the simulation
// until registration quiesces. It returns an error naming any MS that did
// not reach the idle (registered) state.
func (n *VGPRSNet) RegisterAll() error {
	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	if err := powerOn(n.Env, n.MSs); err != nil {
		return err
	}
	for i, term := range n.Terminals {
		if !term.Registered() {
			return fmt.Errorf("netsim: terminal %d not registered", i)
		}
	}
	return nil
}

// powerOn switches mss on, runs until registration quiesces, and names the
// first MS that did not reach the idle (registered) state.
func powerOn(env *sim.Env, mss []*gsm.MS) error {
	for _, ms := range mss {
		ms.PowerOn(env)
	}
	env.RunUntil(env.Now() + 30*time.Second)
	for i, ms := range mss {
		if ms.State() != gsm.MSIdle {
			return fmt.Errorf("netsim: MS %d state %v after registration", i, ms.State())
		}
	}
	return nil
}
