package netsim

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/sim"
	"vgprs/internal/vmsc"
)

// fig9Net is what both Fig 9 topologies share: the anchor vGPRS network
// and the neighbour cell whose report triggers the handoff.
type fig9Net struct {
	*VGPRSNet
	// TargetCell is the neighbour cell the MS reports to trigger the
	// handoff.
	TargetCell gsmid.CGI
}

// RunHandoff drives the Fig 9 scenario on an established call: the MS
// reports the target cell and the simulation runs until the handover
// completes (or the deadline passes). It returns whether the handover
// finished.
func (n *fig9Net) RunHandoff(ms *gsm.MS, deadline time.Duration) bool {
	prev := n.VMSC.Stats().Handovers
	ms.ReportNeighbor(n.Env, n.TargetCell)
	end := n.Env.Now() + deadline
	for n.Env.Now() < end {
		if n.VMSC.Stats().Handovers > prev {
			return true
		}
		if !n.Env.Step() {
			break
		}
	}
	return false
}

// HandoffNet extends a VGPRSNet with a legacy GSM MSC and second radio
// subsystem — the coexistence configuration of paper Fig 9: the VMSC is the
// anchor; mid-call the MS moves to a cell served by the classic MSC over
// the standard MAP E inter-system handoff, and the voice path becomes
// H.323 <-> VMSC <-> ISUP trunk <-> MSC <-> MS.
type HandoffNet struct {
	fig9Net
	// MSC is the legacy target switching center.
	MSC *msc.MSC
	// TargetBSC is the radio controller under the legacy MSC.
	TargetBSC *gsm.BSC
	// ETrunks is the VMSC<->MSC E-interface trunk group.
	ETrunks *isup.TrunkGroup

	// HomeCell is the anchor VMSC's own cell: a handed-over MS reporting
	// it triggers a subsequent handback (GSM 03.09).
	HomeCell gsmid.CGI
	// MSC3/ThirdCell/ETrunks3 form a second legacy system for the
	// subsequent-handover-to-a-third-MSC case.
	MSC3      *msc.MSC
	ThirdCell gsmid.CGI
	ETrunks3  *isup.TrunkGroup
}

// BuildHandoff wires the Fig 9 topology. The target-side VLR is shared with
// the VMSC (a common configuration: one VLR serving several MSC areas).
func BuildHandoff(opts VGPRSOptions) *HandoffNet {
	t := opts.topo()
	n := &HandoffNet{
		HomeCell:  area1Cell,
		ThirdCell: gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 4}, CI: 0x40},
		ETrunks:   t.trunk("VMSC<->MSC (E)", isup.TrunkNational, 8),
		ETrunks3:  t.trunk("VMSC<->MSC-3 (E)", isup.TrunkNational, 8),
	}
	n.TargetCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}, CI: 0x20}
	n.VGPRSNet = vgprsTopo(t, opts, func(c *vmsc.Config) {
		handover(c, "BTS-1", n.TargetCell, "MSC-2", "BTS-2", n.ETrunks)
		handover(c, "BTS-1", n.ThirdCell, "MSC-3", "BTS-3", n.ETrunks3)
	})
	// The two legacy MSCs share VLR-1 and are E-interface peers of the
	// anchor only; a subsequent handover between them still runs through
	// the anchor.
	legacy := func(k int, hoPrefix string, trunks *isup.TrunkGroup) (*gsm.BSC, *msc.MSC) {
		m := msc.New(msc.Config{
			ID: sim.NodeID(fmt.Sprintf("MSC-%d", k)), VLR: "VLR-1",
			Trunks:               map[sim.NodeID]*isup.TrunkGroup{"VMSC-1": trunks},
			HandoverNumberPrefix: hoPrefix,
		})
		return n.addTarget(t, k, m), m
	}
	n.TargetBSC, n.MSC = legacy(2, "88698", n.ETrunks)
	_, n.MSC3 = legacy(3, "88696", n.ETrunks3)
	n.finish(t)
	return n
}

// addTarget lists a handover target system: BTS-k and BSC-k under the
// switch sw, which shares VLR-1 and is an E-interface peer of VMSC-1.
// Every MS can reach BTS-k (neighbouring coverage).
func (n *fig9Net) addTarget(t *topo, k int, sw sim.Node) *gsm.BSC {
	bts, bsc := newRAN(sim.NodeID(fmt.Sprintf("BTS-%d", k)), sim.NodeID(fmt.Sprintf("BSC-%d", k)), sw.ID(), 0)
	t.add(0, bts, bsc, sw)
	t.link(bts.ID(), bsc.ID(), "Abis")
	t.link(bsc.ID(), sw.ID(), "A")
	t.link(sw.ID(), "VLR-1", "B")
	t.link("VMSC-1", sw.ID(), "E")
	for _, ms := range n.MSs {
		t.link(ms.ID(), bts.ID(), "Um")
	}
	return bsc
}

// VMSCHandoffNet is the VMSC-to-VMSC variant of the Fig 9 scenario — the
// paper's §7 note that "inter-system handoff between two VMSCs follows the
// same procedure".
type VMSCHandoffNet struct {
	fig9Net
	// Target is the second VMSC, acting purely as the handover target.
	Target *vmsc.VMSC
	// TargetBSC is the radio controller under the target VMSC.
	TargetBSC *gsm.BSC
	// ETrunks is the anchor<->target E-interface trunk group.
	ETrunks *isup.TrunkGroup
}

// BuildHandoffVMSC wires a two-VMSC handoff topology. The target VMSC
// shares the VLR; it needs no GPRS or H.323 attachments for the target
// role, since the anchor keeps the VoIP leg.
func BuildHandoffVMSC(opts VGPRSOptions) *VMSCHandoffNet {
	t := opts.topo()
	n := &VMSCHandoffNet{ETrunks: t.trunk("VMSC<->VMSC (E)", isup.TrunkNational, 8)}
	n.TargetCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 3}, CI: 0x30}
	n.VGPRSNet = vgprsTopo(t, opts, func(c *vmsc.Config) {
		handover(c, "BTS-1", n.TargetCell, "VMSC-2", "BTS-2", n.ETrunks)
	})
	n.Target = vmsc.New(vmsc.Config{
		ID: "VMSC-2", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell:       n.TargetCell,
		Gatekeeper: gkAddr, Dir: n.Dir,
	})
	n.TargetBSC = n.addTarget(t, 2, n.Target)
	t.link("VMSC-2", "SGSN-1", "Gb")
	n.finish(t)
	return n
}
