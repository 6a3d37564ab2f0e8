package netsim

import (
	"fmt"
	"net/netip"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// MultiRegionOptions parameterises BuildMultiRegion.
type MultiRegionOptions struct {
	Seed int64
	// Regions is the number of BSC/SGSN regions (default 2). Each region
	// is a full vGPRS stack — BTS, BSC, VMSC, VLR, SGSN, GGSN, router,
	// gatekeeper — sharing one national HLR.
	Regions int
	// MSPerRegion is the subscriber population per region (default 1).
	MSPerRegion int
	// Shards partitions the event loop (0 or 1 = sequential): the HLR and
	// SS7 plane stay on shard 0, region r runs on shard 1+(r mod shards-1).
	// Regions only talk to each other through the HLR's MAP interfaces, so
	// the SS7 latency is the cross-shard lookahead.
	Shards int
	// Latencies is the delay profile (default DefaultLatencies).
	Latencies *Latencies
	// NoTrace disables trace recording (for large load benches).
	NoTrace bool
}

// Region is one region's element handles.
type Region struct {
	VMSC *vmsc.VMSC
	VLR  *vlr.VLR
	SGSN SGSNHandle
	GGSN GGSNHandle
	GK   *h323.Gatekeeper
	BSC  *gsm.BSC
	MSs  []*gsm.MS
}

// MultiRegionNet is the paper's architecture scaled out: R independent
// BSC/SGSN regions homed on one HLR. It exists for engine-scaling work —
// the event population of different regions is nearly independent, so the
// sharded engine can process regions in parallel between HLR interactions.
type MultiRegionNet struct {
	Env     *sim.Env
	Rec     *trace.Recorder
	HLR     *hlr.HLR
	Regions []Region

	// Subscribers is index-aligned with the global MS order: region 0's
	// MSs first, then region 1's, and so on.
	Subscribers []Subscriber
}

// BuildMultiRegion wires Regions copies of the Fig 2(b) region stack around
// a shared HLR:
//
//	MS ~Um~ BTS-Rr ~Abis~ BSC-Rr ~A~ VMSC-Rr ~Gb~ SGSN-Rr ~Gn~ GGSN-Rr ~Gi~ GI-Rr ~IP~ GK-Rr
//	VMSC-Rr ~B~ VLR-Rr ~D~ HLR;  SGSN-Rr ~Gr~ HLR;  GGSN-Rr ~Gc~ HLR
func BuildMultiRegion(opts MultiRegionOptions) *MultiRegionNet {
	if opts.Regions == 0 {
		opts.Regions = 2
	}
	if opts.MSPerRegion == 0 {
		opts.MSPerRegion = 1
	}
	t := newTopo(opts.Seed, opts.Shards, !opts.NoTrace, opts.Latencies)
	n := &MultiRegionNet{HLR: hlr.New(hlr.Config{ID: "HLR"})}
	t.add(0, n.HLR)
	for r := 0; r < opts.Regions; r++ {
		// Partition: the HLR (and with it the shared SS7 plane) on shard
		// 0, each region wholly on one of the remaining shards. The only
		// cross-shard links are then the MAP interfaces D/Gr/Gc into the
		// HLR, making the SS7 latency the lookahead.
		shard := 0
		if t.shards > 1 {
			shard = 1 + r%(t.shards-1)
		}
		suffix := fmt.Sprintf("-R%d", r+1)
		lai := gsmid.LAI{MCC: "466", MNC: "92", LAC: uint16(r + 1)}
		a := newArea(areaPlan{
			id:  func(role string) sim.NodeID { return sim.NodeID(role + suffix) },
			hlr: "HLR", cc: "886", msrn: fmt.Sprintf("8869%04d", r+1),
			cell: gsmid.CGI{LAI: lai, CI: 1},
			gk:   ipnet.MustAddr(fmt.Sprintf("192.168.%d.1", r+1)),
			pool: netip.MustParsePrefix(fmt.Sprintf("10.%d.1.0/24", r+1)),
			dir:  h323.NewDirectory(),
		}, &VGPRSOptions{}, nil)
		// A region lists its roles in its own order: the VMSC after the
		// H.323 zone, where the BuildVGPRS area has it after the VLR.
		t.add(shard, a.VLR, a.SGSN, a.GGSN, a.GI, a.GK, a.VMSC, a.BTS, a.BSC)
		a.wire(t, "HLR", 0)

		reg := Region{
			VMSC: a.VMSC, VLR: a.VLR, SGSN: SGSNHandle{a.SGSN}, GGSN: GGSNHandle{a.GGSN},
			GK: a.GK, BSC: a.BSC,
		}
		for i := 0; i < opts.MSPerRegion; i++ {
			sub := SubscriberN(len(n.Subscribers))
			n.Subscribers = append(n.Subscribers, sub)
			ms := newMS(sim.NodeID(fmt.Sprintf("MS-R%d-%d", r+1, i+1)), sub, a.BTS.ID(), lai, &VGPRSOptions{})
			reg.MSs = append(reg.MSs, ms)
			t.add(shard, ms)
			t.link(ms.ID(), a.BTS.ID(), "Um")
			t.provision(n.HLR, a.VMSC, sub)
		}
		n.Regions = append(n.Regions, reg)
	}
	n.Env, n.Rec = t.build()
	return n
}

// RegisterAll powers on every MS in every region and runs until
// registration quiesces, returning an error naming any MS (in global
// order) that did not reach the idle (registered) state.
func (n *MultiRegionNet) RegisterAll() error {
	var mss []*gsm.MS
	for _, reg := range n.Regions {
		mss = append(mss, reg.MSs...)
	}
	return powerOn(n.Env, mss)
}

// Residual snapshots the transient state of every region; see
// VGPRSNet.Residual.
func (n *MultiRegionNet) Residual() Residual { return audit(n.Env, nil, false) }
