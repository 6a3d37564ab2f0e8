package netsim

import (
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/pstn"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// topo is a topology spec: the nodes in registration order, each with its
// shard; the links by interface; the subscribers to provision; and the
// trunk groups the topology owns. Every builder in this package lists its
// network as a topo and hands it to build.
//
// Registration order is part of the topology. sim.Env.AddNode gives each
// node its event-key context and RNG stream in that order, so the order
// fixes every trace, fingerprint and deterministic benchmark figure. Where
// two topologies list the same roles in different orders (the BuildVGPRS
// area, a BuildMultiRegion region, the second BuildTwoVMSC area) the spec
// says so explicitly.
type topo struct {
	seed   int64
	shards int
	traced bool
	lat    Latencies

	nodes  []placed
	links  []link
	subs   []provision
	trunks []*isup.TrunkGroup
}

type placed struct {
	node  sim.Node
	shard int
}

// link is a bidirectional link. Its latency is the interface's Latencies
// class unless lat overrides it.
type link struct {
	a, b  sim.NodeID
	iface string
	lat   time.Duration
}

// provision puts a subscriber's record in an HLR and its MSISDN in a VMSC
// (which would otherwise learn it from the VLR at registration); either
// may be nil.
type provision struct {
	hlr  *hlr.HLR
	vmsc *vmsc.VMSC
	sub  Subscriber
	qos  uint8 // the HLR profile's VoIPQoS class
}

// newTopo starts an empty spec; a nil lat selects DefaultLatencies.
func newTopo(seed int64, shards int, traced bool, lat *Latencies) *topo {
	t := &topo{seed: seed, shards: max(shards, 1), traced: traced, lat: DefaultLatencies()}
	if lat != nil {
		t.lat = *lat
	}
	return t
}

// add appends nodes, in order, on the given shard.
func (t *topo) add(shard int, nodes ...sim.Node) {
	for _, n := range nodes {
		t.nodes = append(t.nodes, placed{n, shard})
	}
}

// link adds a link at its interface's class latency.
func (t *topo) link(a, b sim.NodeID, iface string) { t.links = append(t.links, link{a, b, iface, 0}) }

// linkAt adds a link whose latency overrides its interface class (the
// roaming topologies' international SS7 and ISUP legs).
func (t *topo) linkAt(a, b sim.NodeID, iface string, lat time.Duration) {
	t.links = append(t.links, link{a, b, iface, lat})
}

// provision provisions sub in h with the default vGPRS profile and, when
// v is set, its MSISDN in v.
func (t *topo) provision(h *hlr.HLR, v *vmsc.VMSC, sub Subscriber) {
	t.subs = append(t.subs, provision{hlr: h, vmsc: v, sub: sub, qos: 1})
}

// trunk creates a trunk group the topology owns; the Residual walk counts
// its circuits in use.
func (t *topo) trunk(name string, class isup.TrunkClass, size int) *isup.TrunkGroup {
	g := isup.NewTrunkGroup(name, class, size)
	t.trunks = append(t.trunks, g)
	return g
}

// build registers the nodes in order, wires the links, provisions the
// subscribers and places each node on its shard.
func (t *topo) build() (*sim.Env, *trace.Recorder) {
	env := sim.NewShardedEnv(t.seed, t.shards)
	var rec *trace.Recorder
	if t.traced {
		rec = trace.NewRecorder()
		env.SetTracer(rec)
	}
	for _, p := range t.nodes {
		env.AddNode(p.node)
	}
	for _, l := range t.links {
		lat := l.lat
		if lat == 0 {
			lat = t.lat.of(l.iface)
		}
		env.Connect(l.a, l.b, l.iface, lat)
	}
	for _, p := range t.subs {
		if p.hlr != nil {
			mustProvision(p.hlr, hlr.Subscriber{
				IMSI: p.sub.IMSI, MSISDN: p.sub.MSISDN, Ki: p.sub.Ki,
				Profile: sigmap.SubscriberProfile{
					MSISDN: p.sub.MSISDN, InternationalAllowed: true, VoIPQoS: p.qos,
				},
			})
		}
		if p.vmsc != nil {
			p.vmsc.ProvisionMSISDN(p.sub.IMSI, p.sub.MSISDN)
		}
	}
	for _, p := range t.nodes {
		if p.shard != 0 {
			env.AssignShard(p.node.ID(), p.shard)
		}
	}
	return env, rec
}

// of returns the one-way delay of an interface's class.
func (l Latencies) of(iface string) time.Duration {
	switch iface {
	case "Um":
		return l.Um
	case "Abis":
		return l.Abis
	case "A":
		return l.A
	case "B", "C", "D", "E", "Gr", "Gc":
		return l.SS7
	case "Gb":
		return l.Gb
	case "Gn":
		return l.Gn
	case "Gi":
		return l.Gi
	case "IP", "Line":
		return l.LAN
	case "ISUP":
		return l.Natl
	}
	panic("netsim: no latency class for interface " + iface)
}

// SGSNHandle and GGSNHandle re-export the GPRS core elements without
// leaking construction details into every test.
type SGSNHandle struct{ *gprs.SGSN }

// GGSNHandle wraps the GGSN.
type GGSNHandle struct{ *gprs.GGSN }

// area holds the elements of one Fig 2(b) service area, from the radio
// edge to the H.323 zone, homed on an HLR. gn is the SGSN's GGSN: the
// area's own, or another area's when it has none.
type area struct {
	gn   sim.NodeID
	VLR  *vlr.VLR
	VMSC *vmsc.VMSC
	SGSN *gprs.SGSN
	GGSN *gprs.GGSN
	GI   *ipnet.Router
	GK   *h323.Gatekeeper
	BTS  *gsm.BTS
	BSC  *gsm.BSC
}

// areaPlan names and addresses one service area.
type areaPlan struct {
	id       func(role string) sim.NodeID
	hlr      sim.NodeID
	cc, msrn string // the VLR's home country code and MSRN prefix
	cell     gsmid.CGI
	gk       netip.Addr // the gatekeeper's address on the GI LAN
	pool     netip.Prefix
	poolSize int // GGSN pool capacity (0 = the prefix's default)
	dir      *h323.Directory
	// ggsn, when set, names another area's GGSN: this area shares it and
	// that area's H.323 zone instead of getting its own.
	ggsn sim.NodeID
	// static holds the VMSC's per-IMSI static PDP addresses (the
	// DeactivateIdlePDP ablation); the builder fills it after construction.
	static map[gsmid.IMSI]string
}

// newArea constructs one service area's elements. opts tunes them: the
// signalling profile, ablations, capacity limits and the gatekeeper and
// VMSC config mutators; extend, when set, adjusts the VMSC configuration
// after opts.VMSCMutate (extended topologies add handover peers there).
func newArea(p areaPlan, opts *VGPRSOptions, extend func(*vmsc.Config)) *area {
	sig := opts.sig()
	id := p.id
	a := &area{gn: id("GGSN")}
	if p.ggsn != "" {
		a.gn = p.ggsn
	}
	a.VLR = vlr.New(vlr.Config{
		ID: id("VLR"), HLR: p.hlr, HomeCountryCode: p.cc, MSRNPrefix: p.msrn,
		AuthDisabled: opts.AuthDisabled,
		SigRTO:       sig.RTO, SigRetries: sig.Retries,
	})
	a.SGSN = gprs.NewSGSN(gprs.SGSNConfig{
		ID: id("SGSN"), GGSN: a.gn, HLR: p.hlr, MaxContexts: opts.SGSNMaxContexts,
		SigRTO: sig.RTO, SigRetries: sig.Retries,
	})
	a.BTS, a.BSC = newRAN(id("BTS"), id("BSC"), id("VMSC"), opts.TCHCapacity)
	if p.ggsn == "" {
		a.GGSN = gprs.NewGGSN(gprs.GGSNConfig{
			ID: id("GGSN"), PoolPrefix: p.pool.Addr().String(), PoolSize: p.poolSize,
			Gi: id("GI"), HLR: p.hlr,
			NetworkInitiatedActivation: opts.DeactivateIdlePDP,
			SigRTO:                     sig.RTO, SigRetries: sig.Retries,
		})
		gkCfg := h323.GatekeeperConfig{ID: id("GK"), Addr: p.gk, Router: id("GI"), Dir: p.dir}
		if opts.GKMutate != nil {
			opts.GKMutate(&gkCfg)
		}
		a.GK = h323.NewGatekeeper(gkCfg)
		a.GI = ipnet.NewRouter(id("GI"))
		a.GI.AddHost(p.gk, id("GK"))
		a.GI.AddPrefix(p.pool, id("GGSN"))
		p.dir.Bind(p.gk, id("GK"))
	}

	vcfg := vmsc.Config{
		ID: id("VMSC"), VLR: id("VLR"), SGSN: id("SGSN"),
		Cell: p.cell, Gatekeeper: p.gk, Dir: p.dir,
		DeactivateIdlePDP: opts.DeactivateIdlePDP,
		StaticAddrs:       p.static,
		SigRTO:            sig.RTO, SigRetries: sig.Retries, H323Retries: sig.H323Retries,
	}
	if opts.VMSCMutate != nil {
		opts.VMSCMutate(&vcfg)
	}
	if extend != nil {
		extend(&vcfg)
	}
	a.VMSC = vmsc.New(vcfg)
	return a
}

// wire links the area's elements and homes them on hlr, whose D/Gr/Gc
// links take hlrLat when it is non-zero (an HLR abroad). Without a BSC the
// area has no radio access; without a VMSC it is the GPRS core alone;
// without a GGSN it uses another area's; without a gatekeeper it has no
// H.323 zone.
//
//	BTS ~Abis~ BSC ~A~ VMSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ GI ~IP~ GK
//	VMSC ~B~ VLR ~D~ HLR;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR
func (a *area) wire(t *topo, hlr sim.NodeID, hlrLat time.Duration) {
	if a.BSC != nil {
		t.link(a.BTS.ID(), a.BSC.ID(), "Abis")
		t.link(a.BSC.ID(), a.VMSC.ID(), "A")
	}
	if a.VMSC != nil {
		t.link(a.VMSC.ID(), a.VLR.ID(), "B")
		t.link(a.VMSC.ID(), a.SGSN.ID(), "Gb")
	}
	t.linkAt(a.VLR.ID(), hlr, "D", hlrLat)
	t.link(a.SGSN.ID(), a.gn, "Gn")
	t.linkAt(a.SGSN.ID(), hlr, "Gr", hlrLat)
	if a.GGSN != nil {
		t.linkAt(a.GGSN.ID(), hlr, "Gc", hlrLat)
	}
	if a.GK != nil {
		t.link(a.GGSN.ID(), a.GI.ID(), "Gi")
		t.link(a.GI.ID(), a.GK.ID(), "IP")
	}
}

// newRAN constructs a radio subsystem: one BTS under a BSC homed on msc
// (tch bounds its dedicated channels, 0 = default).
func newRAN(bts, bsc, msc sim.NodeID, tch int) (*gsm.BTS, *gsm.BSC) {
	return gsm.NewBTS(gsm.BTSConfig{ID: bts, BSC: bsc}),
		gsm.NewBSC(gsm.BSCConfig{ID: bsc, MSC: msc, BTSs: []sim.NodeID{bts}, TCHCapacity: tch})
}

// handover makes the VMSC configured by c the anchor of a handover into
// cell, served by msc's bts over trunks, and of a handback into its own
// cell through home.
func handover(c *vmsc.Config, home sim.NodeID, cell gsmid.CGI, msc, bts sim.NodeID, trunks *isup.TrunkGroup) {
	if c.HandoverTargets == nil {
		c.HandoverTargets = map[gsmid.CGI]vmsc.HandoverTarget{}
	}
	c.HandoverTargets[cell] = vmsc.HandoverTarget{MSC: msc, BTS: bts}
	if c.ETrunks == nil {
		c.ETrunks = map[sim.NodeID]*isup.TrunkGroup{}
	}
	c.ETrunks[msc] = trunks
	if c.HandbackCells == nil {
		c.HandbackCells = map[gsmid.CGI]sim.NodeID{}
	}
	c.HandbackCells[c.Cell] = home
}

// newMS constructs a handset for sub camped on bts. It answers calls after
// opts.AutoAnswerDelay when that is set.
func newMS(id sim.NodeID, sub Subscriber, bts sim.NodeID, lai gsmid.LAI, opts *VGPRSOptions) *gsm.MS {
	return gsm.NewMS(gsm.MSConfig{
		ID: id, IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
		BTS: bts, LAI: lai,
		Talk: opts.Talk, DTX: opts.DTX,
		AutoAnswer: opts.AutoAnswerDelay > 0, AnswerDelay: opts.AutoAnswerDelay,
	})
}

// ukPSTN is the PSTN side of Figs 7-8 shared by the roaming and day
// topologies: the UK GMSC with a fixed line behind it, and caller y's
// local exchange, which prefers the VoIP gateway for UK numbers and falls
// back to the international route when the gatekeeper cannot resolve one.
type ukPSTN struct {
	GMSC    *pstn.Exchange
	PhoneUK *pstn.Phone
	LE      *pstn.Exchange
	PhoneY  *pstn.Phone
}

// addUKPSTN adds the PSTN side after the nodes already listed, in the
// order GMSC-UK, PHONE-UK, LE, PHONE-Y, and links it to the UK HLR and to
// the gateway gw over the local trunks.
func (t *topo) addUKPSTN(hlr, le, gw sim.NodeID, local, intl *isup.TrunkGroup, phoneY pstn.PhoneConfig, answer time.Duration) ukPSTN {
	p := ukPSTN{
		GMSC: pstn.NewExchange(pstn.ExchangeConfig{
			ID: "GMSC-UK", HLR: hlr, MobilePrefixes: []string{"0447"},
			Routes: []pstn.Route{
				{Prefix: "0446", Next: "PHONE-UK"}, // UK fixed lines
			},
		}),
		PhoneUK: pstn.NewPhone(pstn.PhoneConfig{
			ID: "PHONE-UK", Number: UKFixedNumber, Exchange: "GMSC-UK",
			AutoAnswer: true, AnswerDelay: answer,
		}),
		LE: pstn.NewExchange(pstn.ExchangeConfig{
			ID: le,
			Routes: []pstn.Route{
				{Prefix: "044", Next: gw, Trunks: local},
				{Prefix: "044", Next: "GMSC-UK", Trunks: intl},
				{Prefix: "85221", Next: "PHONE-Y"},
			},
		}),
	}
	phoneY.ID, phoneY.Number, phoneY.Exchange = "PHONE-Y", CallerNumber, le
	p.PhoneY = pstn.NewPhone(phoneY)
	t.add(0, p.GMSC, p.PhoneUK, p.LE, p.PhoneY)
	t.link("PHONE-Y", le, "Line")
	t.link(le, gw, "ISUP")
	t.linkAt(le, "GMSC-UK", "ISUP", t.lat.Intl)
	t.link("GMSC-UK", hlr, "C")
	t.link("PHONE-UK", "GMSC-UK", "Line")
	return p
}

func mustProvision(h *hlr.HLR, s hlr.Subscriber) {
	if err := h.Provision(s); err != nil {
		panic(err)
	}
}
