package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/pstn"
	"vgprs/internal/sim"
)

// DayNet is the day-in-the-life topology: the two-area TwoVMSCNet plus
// everything a sustained mixed workload needs — a PSTN side (local
// exchange, H.323 gateway, international fallback to a UK GMSC) for the
// Fig 7/Fig 8 trombone-vs-breakout paths, a UK roamer camped in area 1
// whose MSISDN lands in the local gatekeeper, and background GPRS data
// handsets with their own packet-only radio leg and an echo host on the
// Gi LAN.
type DayNet struct {
	*TwoVMSCNet

	Gateway *h323.Gateway
	LE      *pstn.Exchange
	GMSC    *pstn.Exchange
	PhoneY  *pstn.Phone
	PhoneUK *pstn.Phone

	// Roamer is the visiting UK subscriber (RoamerIMSI/RoamerMSISDN),
	// initially camped in area 1.
	Roamer *gsm.MS

	// DataMSs are packet-only handsets sharing the first subscribers'
	// IMSIs (the dual-mode case: voice via the VMSC, data via the PCU).
	DataMSs []*gprs.MS
	// Echo answers UDP on the Gi LAN for the data handsets to ping.
	Echo *EchoHost

	// LocalTrunks carry LE->gateway legs (local breakout, Fig 8);
	// IntlTrunks carry the LE->GMSC fallback (the tromboned path the
	// breakout avoids, Fig 7).
	LocalTrunks *isup.TrunkGroup
	IntlTrunks  *isup.TrunkGroup
}

// DayOptions parameterises BuildDay.
type DayOptions struct {
	VGPRSOptions
	// DataMS is how many of the first subscribers also get a packet-only
	// data handset (default 1, capped at NumMS).
	DataMS int
}

// gatewayAddr is the PSTN gateway's IP on the H.323 LAN.
var gatewayAddr = ipnet.MustAddr("192.168.1.2")

// echoAddr is the data echo host's IP on the Gi LAN.
var echoAddr = ipnet.MustAddr("192.168.1.100")

// BuildDay wires the day-in-the-life topology.
func BuildDay(opts DayOptions) *DayNet {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.DataMS == 0 {
		opts.DataMS = 1
	}
	if opts.DataMS > opts.NumMS {
		opts.DataMS = opts.NumMS
	}
	if opts.AutoAnswerDelay == 0 {
		opts.AutoAnswerDelay = 200 * time.Millisecond
	}

	// Unregistered Hong-Kong-style local numbers (852…) break out to the
	// PSTN through the gateway; everything else resolves in the
	// gatekeeper's table, including the roamer's UK MSISDN.
	callerGK := opts.GKMutate
	opts.GKMutate = func(cfg *h323.GatekeeperConfig) {
		if callerGK != nil {
			callerGK(cfg)
		}
		cfg.PSTNGateway = gatewayAddr
		cfg.PSTNPrefixes = append(cfg.PSTNPrefixes, "852")
	}

	t, base := twoVMSCTopo(opts.VGPRSOptions)
	n := &DayNet{
		TwoVMSCNet:  base,
		LocalTrunks: t.trunk("LE-1<->GW-1", isup.TrunkLocal, 16),
		IntlTrunks:  t.trunk("LE-1<->GMSC-UK", isup.TrunkInternational, 16),
	}

	// PSTN side: VoIP gateway, then the UK GMSC and the local exchange.
	n.Gateway = h323.NewGateway(h323.GatewayConfig{
		ID: "GW-1", Addr: gatewayAddr, Router: "GI", Gatekeeper: gkAddr,
		Dir: base.Dir, Exchange: "LE-1", Trunks: n.LocalTrunks,
	})
	n.Router.AddHost(gatewayAddr, "GW-1")
	base.Dir.Bind(gatewayAddr, "GW-1")
	t.add(0, n.Gateway)
	t.link("GI", "GW-1", "IP")
	p := t.addUKPSTN("HLR", "LE-1", "GW-1", n.LocalTrunks, n.IntlTrunks, pstn.PhoneConfig{
		Talk: opts.Talk, AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
	}, opts.AutoAnswerDelay)
	n.GMSC, n.PhoneUK, n.LE, n.PhoneY = p.GMSC, p.PhoneUK, p.LE, p.PhoneY

	// The radio side joins the RAN shard; the PSTN and Gi-LAN additions
	// stay on shard 0 with the core.
	ran := 0
	if opts.Shards > 1 {
		ran = 1
	}

	// The visiting UK subscriber, provisioned in the shared HLR and camped
	// in area 1.
	t.provision(n.HLR, n.VMSC, roamer)
	t.provision(nil, n.VMSC2, roamer)
	n.Roamer = newMS("MS-ROAM", roamer, "BTS-1", area1Cell.LAI, &opts.VGPRSOptions)
	t.add(ran, n.Roamer)
	t.link("MS-ROAM", "BTS-1", "Um")
	t.link("MS-ROAM", "BTS-2", "Um")

	// Background data: packet-only handsets for the first subscribers,
	// attached over a dedicated PCU radio leg (BuildVGPRS's BSC-1 carries
	// no SGSN link), plus the echo host they ping.
	n.Echo = &EchoHost{Node: "ECHO", Addr: echoAddr}
	n.Router.AddHost(echoAddr, "ECHO")
	t.add(0, n.Echo)
	t.link("GI", "ECHO", "IP")
	btsD := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-D", BSC: "BSC-D"})
	bscD := gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-D", MSC: "VMSC-1", SGSN: "SGSN-1", BTSs: []sim.NodeID{"BTS-D"},
	})
	t.add(ran, btsD, bscD)
	t.link("BTS-D", "BSC-D", "Abis")
	t.link("BSC-D", "VMSC-1", "A")
	t.link("BSC-D", "SGSN-1", "Gb")
	for i := 0; i < opts.DataMS; i++ {
		ms := gprs.NewMS(gprs.MSConfig{
			ID: sim.NodeID(fmt.Sprintf("MS-%d-data", i+1)), IMSI: base.Subscribers[i].IMSI, BTS: "BTS-D",
		})
		n.DataMSs = append(n.DataMSs, ms)
		t.add(ran, ms)
		t.link(ms.ID(), "BTS-D", "Um")
	}
	n.finish(t)
	return n
}

// EchoHost is a Gi-LAN node that answers every IP packet with an echo of
// its payload — the far end for background data sessions.
type EchoHost struct {
	Node sim.NodeID
	Addr netip.Addr

	// Packets counts echoes served.
	Packets uint64
}

// ID implements sim.Node.
func (h *EchoHost) ID() sim.NodeID { return h.Node }

// Receive implements sim.Node.
func (h *EchoHost) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	if pkt, ok := msg.(ipnet.Packet); ok {
		h.Packets++
		env.Send(h.Node, from, pkt.Reply(pkt.Payload))
	}
}
