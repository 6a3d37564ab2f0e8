package netsim

import (
	"fmt"
	"strings"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/pstn"
	"vgprs/internal/sim"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// Residual is a snapshot of every transient signalling record a network
// still holds: pending transactions, open MAP dialogues, RAS exchanges in
// flight. A drained network — every call hung up, every procedure answered
// — must report an empty Residual; the scenario soaks assert exactly that,
// so any state a procedure forgets to release shows up by name instead of
// as a slow memory climb.
type Residual struct {
	Items []ResidualItem
}

// ResidualItem names one non-zero transient-state counter.
type ResidualItem struct {
	Node  string
	Kind  string
	Count int
}

// add records a counter only when it is non-zero, keeping Items a pure
// violation list.
func (r *Residual) add(node, kind string, count int) {
	if count != 0 {
		r.Items = append(r.Items, ResidualItem{Node: node, Kind: kind, Count: count})
	}
}

// Total sums every leaked record.
func (r *Residual) Total() int {
	total := 0
	for _, it := range r.Items {
		total += it.Count
	}
	return total
}

// String renders the violation list, one counter per line.
func (r *Residual) String() string {
	if len(r.Items) == 0 {
		return "no residual state"
	}
	var b strings.Builder
	for i, it := range r.Items {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: %d %s", it.Node, it.Count, it.Kind)
	}
	return b.String()
}

// Count sums the leaked records of one kind.
func (r *Residual) Count(kind string) int {
	total := 0
	for _, it := range r.Items {
		if it.Kind == kind {
			total += it.Count
		}
	}
	return total
}

// SlabImbalance is the Residual kind of the storage audits: allocated-
// handle count must equal live-record count in every slab shard, and every
// index entry must resolve to a record that agrees with its key. A
// non-zero imbalance is a storage-layer leak even when every procedure-
// level counter is clean.
const SlabImbalance = "slab imbalance"

// inspect reports each counter a stateful node exposes. transient gets the
// in-flight records and storage audits a drained network must hold at
// zero; durable gets the records meant to survive between procedures
// (registrations, attachments, PDP contexts).
func inspect(node sim.Node, transient, durable func(kind string, n int)) {
	switch x := node.(type) {
	case *vmsc.VMSC:
		transient("pending transactions", x.PendingTransactions())
		transient("active calls", x.ActiveCalls())
		transient("handoff trunk calls", x.HandoffCalls())
		transient("in-flight media frames", x.InflightFrames())
		transient(SlabImbalance, x.SlabImbalance())
		durable("registered MSs", x.MSTable())
	case *vlr.VLR:
		transient("pending location updates", x.PendingUpdates())
		transient("open dialogues", x.OutstandingDialogues())
		transient("outstanding MSRNs", x.OutstandingMSRNs())
		transient(SlabImbalance, x.SlabImbalance())
		durable("registered subscribers", x.Registered())
	case *hlr.HLR:
		transient("open dialogues", x.OutstandingDialogues())
		transient(SlabImbalance, x.SlabImbalance())
	case *gprs.SGSN:
		transient("pending GTP transactions", x.PendingTransactions())
		transient("open dialogues", x.OutstandingDialogues())
		transient(SlabImbalance, x.SlabImbalance())
		durable("attached MSs", x.Attached())
		durable("PDP contexts", x.ActiveContexts())
	case *gprs.GGSN:
		transient("pending creates", x.PendingCreates())
		transient("open dialogues", x.OutstandingDialogues())
		transient("queued activation packets", x.QueuedPackets())
		transient(SlabImbalance, x.SlabImbalance())
		durable("PDP contexts", x.ActiveContexts())
	case *h323.Gatekeeper:
		transient(SlabImbalance, x.SlabImbalance())
		durable("registrations", x.Registered())
	case *h323.Terminal:
		transient("pending RAS", x.PendingRAS())
		transient("active calls", x.ActiveCalls())
	case *gsm.BSC:
		transient("channels in use", x.ChannelsInUse())
	case *msc.MSC:
		transient("active calls", x.ActiveCalls())
	case *pstn.Exchange:
		transient("active calls", x.ActiveCalls())
	case *pstn.Phone:
		if x.InCall() {
			transient("active calls", 1)
		}
	case *gprs.MS:
		transient("pending transactions", x.Client.PendingTransactions())
	}
}

// audit walks env's nodes in registration order, then the topology's trunk
// groups, and collects the transient counters — or, with durable, the
// durable ones.
func audit(env *sim.Env, trunks []*isup.TrunkGroup, durable bool) Residual {
	var r Residual
	skip := func(string, int) {}
	for _, node := range env.Nodes() {
		id := string(node.ID())
		add := func(kind string, n int) { r.add(id, kind, n) }
		if durable {
			inspect(node, skip, add)
		} else {
			inspect(node, add, skip)
		}
	}
	if !durable {
		for _, g := range trunks {
			r.add(g.Name, "trunks in use", g.InUse())
		}
	}
	return r
}

// Residual snapshots the transient state of every stateful element and
// trunk group in the topology. Durable state (registrations, attached
// subscribers, idle PDP contexts) is deliberately excluded — it is
// supposed to survive between procedures; only in-flight records and the
// storage audits count.
func (n *VGPRSNet) Residual() Residual { return audit(n.Env, n.trunks, false) }

// Resident counts the durable per-subscriber records the network still
// holds: VMSC MS-table rows, VLR registrations, SGSN attachments, PDP
// contexts, gatekeeper registrations, and directory bindings beyond the
// static hosts the builder bound. After every subscriber is cancelled it
// must be empty.
func (n *VGPRSNet) Resident() Residual {
	r := audit(n.Env, nil, true)
	r.add("directory", "bindings", n.Dir.Bound()-n.dirBase)
	return r
}
