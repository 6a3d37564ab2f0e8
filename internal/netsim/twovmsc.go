package netsim

import (
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sim"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// TwoVMSCNet extends a VGPRSNet with a second complete vGPRS service area —
// its own VMSC, VLR, SGSN and radio subsystem — sharing the HLR, GGSN,
// gatekeeper and terminals. It exercises the paper's §5 movement case: when
// an MS leaves a VMSC's area, standard GSM location update runs through the
// new switch, the HLR cancels the old VLR, the old VLR tells its VMSC, and
// the old VMSC releases the gatekeeper alias and GPRS contexts it held on
// the subscriber's behalf. The two areas are also mutual inter-system
// handover peers over a MAP-E trunk group, so an MS crossing the boundary
// mid-call hands over (Fig 9) instead of dropping.
type TwoVMSCNet struct {
	*VGPRSNet
	// VMSC2/VLR2/SGSN2/BSC2 serve the second area.
	VMSC2 *vmsc.VMSC
	VLR2  *vlr.VLR
	SGSN2 SGSNHandle
	BSC2  *gsm.BSC
	// Area2LAI is the second area's location area; MoveTo it with BTS-2.
	Area2LAI gsmid.LAI
	// Area1Cell/Area2Cell are the areas' serving cells; an in-call MS
	// reporting the other area's cell triggers an inter-VMSC handover.
	Area1Cell gsmid.CGI
	Area2Cell gsmid.CGI
	// ETrunks is the VMSC-1<->VMSC-2 E-interface trunk group carrying
	// handed-over voice.
	ETrunks *isup.TrunkGroup
}

// BuildTwoVMSC wires the two-area topology. Area 1 is the standard
// BuildVGPRS network; area 2 adds BTS-2/BSC-2/VMSC-2/VLR-2/SGSN-2 with
// links mirroring area 1's, plus Um links from every MS to BTS-2. Under
// sharding (opts.Shards >= 3) the second area's elements run on shard 2;
// at Shards == 2 they share shard 0 with the rest of the core.
func BuildTwoVMSC(opts VGPRSOptions) *TwoVMSCNet {
	t, n := twoVMSCTopo(opts)
	n.finish(t)
	return n
}

// twoVMSCTopo lists the BuildTwoVMSC network.
func twoVMSCTopo(opts VGPRSOptions) (*topo, *TwoVMSCNet) {
	t := opts.topo()
	area2LAI := gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}
	n := &TwoVMSCNet{
		Area2LAI:  area2LAI,
		Area1Cell: area1Cell,
		Area2Cell: gsmid.CGI{LAI: area2LAI, CI: 2},
		ETrunks:   t.trunk("VMSC-1<->VMSC-2 (E)", isup.TrunkNational, 16),
	}
	// The areas are mutual handover peers; VMSC-1 learns area 2 on top of
	// whatever the caller's mutator set.
	n.VGPRSNet = vgprsTopo(t, opts, func(c *vmsc.Config) {
		handover(c, "BTS-1", n.Area2Cell, "VMSC-2", "BTS-2", n.ETrunks)
	})

	// The second area shares area 1's GGSN and H.323 zone. Its elements
	// get the signalling profile, authentication and channel capacity of
	// area 1, but neither the ablations nor the caller's VMSC mutator.
	a := newArea(areaPlan{
		id:  func(role string) sim.NodeID { return sim.NodeID(role + "-2") },
		hlr: "HLR", cc: "886", msrn: "88690001", cell: n.Area2Cell,
		gk: gkAddr, dir: n.Dir, ggsn: "GGSN-1",
	}, &VGPRSOptions{AuthDisabled: opts.AuthDisabled, TCHCapacity: opts.TCHCapacity, Sig: opts.Sig},
		func(c *vmsc.Config) { handover(c, "BTS-2", area1Cell, "VMSC-1", "BTS-1", n.ETrunks) })
	n.VLR2, n.VMSC2, n.SGSN2, n.BSC2 = a.VLR, a.VMSC, SGSNHandle{a.SGSN}, a.BSC

	// Area 2 lists VLR, SGSN, VMSC in that order (area 1: VLR, VMSC,
	// SGSN). With three or more shards it gets its own: every link into it
	// (A, E, D, Gn, Gr, Um) has non-zero latency, so the conservative
	// lookahead stays positive. At exactly two shards it stays on shard 0
	// with the rest of the core.
	shard := 0
	if opts.Shards >= 3 {
		shard = 2
	}
	t.add(shard, a.VLR, a.SGSN, a.VMSC, a.BTS, a.BSC)
	a.wire(t, "HLR", 0)
	t.link("VMSC-1", "VMSC-2", "E")
	for _, ms := range n.MSs {
		t.link(ms.ID(), "BTS-2", "Um")
	}
	for _, sub := range n.Subscribers {
		t.provision(nil, n.VMSC2, sub)
	}
	return t, n
}
