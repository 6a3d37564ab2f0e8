package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/pstn"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// Roamer identities: a UK subscriber (MCC 234) visiting Hong Kong.
var (
	// RoamerIMSI is subscriber x's IMSI.
	RoamerIMSI = gsmid.IMSI("234150000000001")
	// RoamerMSISDN is x's UK directory number.
	RoamerMSISDN = gsmid.MSISDN("044781234567")
	// CallerNumber is y's Hong Kong fixed number.
	CallerNumber = gsmid.MSISDN("852211100001")
	// UKFixedNumber is a plain UK landline (for the gatekeeper-miss
	// fallback case).
	UKFixedNumber = gsmid.MSISDN("044612340001")
)

// roamer is subscriber x. Its home profile carries no VoIP QoS class in
// the roaming topologies; the day topology provisions the vGPRS default.
var roamer = Subscriber{IMSI: RoamerIMSI, MSISDN: RoamerMSISDN, Ki: [16]byte{0x77, 0x01}}

// roamerOpts makes the roamer's handset talk and auto-answer.
var roamerOpts = VGPRSOptions{Talk: true, AutoAnswerDelay: 200 * time.Millisecond}

// hkLAI is the Hong Kong location area the roamer camps in.
var hkLAI = gsmid.LAI{MCC: "454", MNC: "00", LAC: 1}

// RoamingGSMNet is the Fig 7 baseline: subscriber x roams in Hong Kong
// under a classic GSM MSC; a local call from y becomes two international
// trunks (the tromboning the paper eliminates).
type RoamingGSMNet struct {
	Env *sim.Env
	Rec *trace.Recorder

	HLRUK  *hlr.HLR
	GMSCUK *pstn.Exchange
	LEHK   *pstn.Exchange
	PhoneY *pstn.Phone
	MSCHK  *msc.MSC
	VLRHK  *vlr.VLR
	MS     *gsm.MS

	// IntlToUK carries y's leg to the UK; IntlToHK carries the GMSC's
	// leg back to Hong Kong — the two international trunks of Fig 7.
	IntlToUK *isup.TrunkGroup
	IntlToHK *isup.TrunkGroup
}

// BuildRoamingGSM wires the Fig 7 configuration.
func BuildRoamingGSM(seed int64) *RoamingGSMNet {
	t := newTopo(seed, 1, true, nil)
	n := &RoamingGSMNet{
		IntlToUK: t.trunk("LE-HK<->GMSC-UK", isup.TrunkInternational, 16),
		IntlToHK: t.trunk("GMSC-UK<->MSC-HK", isup.TrunkInternational, 16),
		HLRUK:    hlr.New(hlr.Config{ID: "HLR-UK"}),
		VLRHK: vlr.New(vlr.Config{
			ID: "VLR-HK", HLR: "HLR-UK", HomeCountryCode: "852", MSRNPrefix: "85290000",
		}),
	}
	n.MSCHK = msc.New(msc.Config{
		ID: "MSC-HK", VLR: "VLR-HK", PSTN: "GMSC-UK",
		Trunks: map[sim.NodeID]*isup.TrunkGroup{"GMSC-UK": n.IntlToHK},
	})
	n.GMSCUK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "GMSC-UK", HLR: "HLR-UK", MobilePrefixes: []string{"0447"},
		Routes: []pstn.Route{
			{Prefix: "85290", Next: "MSC-HK", Trunks: n.IntlToHK},
			{Prefix: "852", Next: "LE-HK", Trunks: n.IntlToUK},
		},
	})
	n.LEHK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "LE-HK",
		Routes: []pstn.Route{
			{Prefix: "044", Next: "GMSC-UK", Trunks: n.IntlToUK},
			{Prefix: "85221", Next: "PHONE-Y"},
		},
	})
	n.PhoneY = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-Y", Number: CallerNumber, Exchange: "LE-HK", Talk: true,
	})
	bts, bsc := newRAN("BTS-HK", "BSC-HK", "MSC-HK", 0)
	n.MS = newMS("MS-X", roamer, "BTS-HK", hkLAI, &roamerOpts)

	t.add(0, n.HLRUK, n.VLRHK, n.MSCHK, n.GMSCUK, n.LEHK, n.PhoneY, bts, bsc, n.MS)
	t.subs = append(t.subs, provision{hlr: n.HLRUK, sub: roamer})
	t.link("MS-X", "BTS-HK", "Um")
	t.link("BTS-HK", "BSC-HK", "Abis")
	t.link("BSC-HK", "MSC-HK", "A")
	t.link("MSC-HK", "VLR-HK", "B")
	t.linkAt("VLR-HK", "HLR-UK", "D", t.lat.Intl) // international SS7
	t.link("GMSC-UK", "HLR-UK", "C")
	t.link("PHONE-Y", "LE-HK", "Line")
	t.linkAt("LE-HK", "GMSC-UK", "ISUP", t.lat.Intl)
	t.linkAt("GMSC-UK", "MSC-HK", "ISUP", t.lat.Intl)
	n.Env, n.Rec = t.build()
	return n
}

// Register powers on the roamer and waits for registration.
func (n *RoamingGSMNet) Register() error { return powerOn(n.Env, []*gsm.MS{n.MS}) }

// InternationalSeizures returns the total international trunk legs used —
// the Fig 7 headline number (2 for the tromboned call).
func (n *RoamingGSMNet) InternationalSeizures() int {
	return n.IntlToUK.TotalSeizures() + n.IntlToHK.TotalSeizures()
}

// RoamingVGPRSNet is the Fig 8 configuration: the same roamer x now
// registers through a Hong Kong VMSC, so its MSISDN appears in the local
// gatekeeper's address-translation table; y's call goes local exchange ->
// H.323 gateway -> VoIP -> VMSC -> x, never leaving Hong Kong.
type RoamingVGPRSNet struct {
	Env *sim.Env
	Rec *trace.Recorder
	Dir *h323.Directory

	HLRUK   *hlr.HLR
	GMSCUK  *pstn.Exchange
	LEHK    *pstn.Exchange
	PhoneY  *pstn.Phone
	PhoneUK *pstn.Phone
	Gateway *h323.Gateway
	GK      *h323.Gatekeeper
	VMSC    *vmsc.VMSC
	VLRHK   *vlr.VLR
	SGSN    SGSNHandle
	GGSN    GGSNHandle
	MS      *gsm.MS

	// LocalTrunks carry the LE->gateway leg (a local call). IntlTrunks
	// carry the fallback path to the UK.
	LocalTrunks *isup.TrunkGroup
	IntlTrunks  *isup.TrunkGroup
}

// BuildRoamingVGPRS wires the Fig 8 configuration.
func BuildRoamingVGPRS(seed int64) *RoamingVGPRSNet {
	t := newTopo(seed, 1, true, nil)
	n := &RoamingVGPRSNet{
		Dir:         h323.NewDirectory(),
		LocalTrunks: t.trunk("LE-HK<->GW-HK", isup.TrunkLocal, 16),
		IntlTrunks:  t.trunk("LE-HK<->GMSC-UK", isup.TrunkInternational, 16),
		HLRUK:       hlr.New(hlr.Config{ID: "HLR-UK"}),
	}
	gkHK := ipnet.MustAddr("192.168.2.1")
	gwAddr := ipnet.MustAddr("192.168.2.2")
	a := newArea(areaPlan{
		id:  func(role string) sim.NodeID { return sim.NodeID(role + "-HK") },
		hlr: "HLR-UK", cc: "852", msrn: "85290000",
		cell: gsmid.CGI{LAI: hkLAI, CI: 1},
		gk:   gkHK, pool: netip.MustParsePrefix("10.2.1.0/24"), dir: n.Dir,
	}, &VGPRSOptions{GKMutate: func(c *h323.GatekeeperConfig) {
		// Unregistered Hong Kong numbers route out through the gateway —
		// the paper §4's "traditional telephone set in the PSTN,
		// connected indirectly through the H.323 network".
		c.PSTNGateway, c.PSTNPrefixes = gwAddr, []string{"852"}
	}}, nil)
	n.VLRHK, n.VMSC, n.GK = a.VLR, a.VMSC, a.GK
	n.SGSN, n.GGSN = SGSNHandle{a.SGSN}, GGSNHandle{a.GGSN}
	n.Gateway = h323.NewGateway(h323.GatewayConfig{
		ID: "GW-HK", Addr: gwAddr, Router: "GI-HK", Gatekeeper: gkHK, Dir: n.Dir,
		Exchange: "LE-HK", Trunks: n.LocalTrunks,
	})
	a.GI.AddHost(gwAddr, "GW-HK")
	n.Dir.Bind(gwAddr, "GW-HK")
	n.MS = newMS("MS-X", roamer, "BTS-HK", hkLAI, &roamerOpts)

	// The HLR is abroad: every MAP link into it is international.
	t.add(0, n.HLRUK, a.VLR, a.SGSN, a.GGSN, a.GI, a.GK, n.Gateway, a.VMSC, a.BTS, a.BSC, n.MS)
	t.subs = append(t.subs, provision{hlr: n.HLRUK, vmsc: n.VMSC, sub: roamer})
	a.wire(t, "HLR-UK", t.lat.Intl)
	t.link("MS-X", "BTS-HK", "Um")
	t.link("GI-HK", "GW-HK", "IP")
	// The PSTN side: y's local exchange prefers the VoIP gateway for UK
	// numbers and falls back to the international route.
	p := t.addUKPSTN("HLR-UK", "LE-HK", "GW-HK", n.LocalTrunks, n.IntlTrunks,
		pstn.PhoneConfig{Talk: true}, roamerOpts.AutoAnswerDelay)
	n.GMSCUK, n.PhoneUK, n.LEHK, n.PhoneY = p.GMSC, p.PhoneUK, p.LE, p.PhoneY
	n.Env, n.Rec = t.build()
	return n
}

// Register powers on the roamer and waits for the full vGPRS registration
// (which, per Fig 8, puts x's UK MSISDN into the Hong Kong gatekeeper).
func (n *RoamingVGPRSNet) Register() error {
	if err := powerOn(n.Env, []*gsm.MS{n.MS}); err != nil {
		return err
	}
	if _, ok := n.GK.Lookup(RoamerMSISDN); !ok {
		return fmt.Errorf("netsim: roamer not in gatekeeper table")
	}
	return nil
}

// InternationalSeizures returns international trunk legs used.
func (n *RoamingVGPRSNet) InternationalSeizures() int {
	return n.IntlTrunks.TotalSeizures()
}
