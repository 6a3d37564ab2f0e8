package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/hlr"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
)

// scaleAttach is the attach phase both scale points report: the whole
// population registered wave by wave, with the memory accounting of
// DESIGN.md §8 — the heap delta between a post-warm-wave baseline and full
// population, both after runtime.GC.
type scaleAttach struct {
	Subs           int     `json:"subs"`
	AttachWallSec  float64 `json:"attach_wall_sec"`
	AttachPerSec   float64 `json:"attach_per_sec"`
	WarmSubs       int     `json:"warm_subs"`
	HeapDeltaBytes uint64  `json:"heap_delta_bytes"`
	BytesPerSub    float64 `json:"bytes_per_sub"`
}

// scaleCalls is call-setup throughput with the whole population resident.
type scaleCalls struct {
	CallSetupOps    int     `json:"call_setup_ops"`
	CallSetupPerSec float64 `json:"call_setup_per_sec"`
}

// scaleAudit is the recycling audit after cancel-all, from the netsim node
// walk: durable records still resident anywhere (must be zero — the slab
// free-lists fully recycle) and the summed storage audit.
type scaleAudit struct {
	DetachLeftover int `json:"detach_leftover"`
	SlabImbalance  int `json:"slab_imbalance"`
}

// ScalePoint is one population size of the million-subscriber scale
// experiment: memory residency and signalling throughput of the core
// databases (HLR, VLR, SGSN, GGSN) with the whole population attached.
// Attach is a MAP location update plus GPRS attach plus signalling-PDP
// activation per subscriber; call setup is a MAP SIFOC authorization
// against the VLR.
type ScalePoint struct {
	scaleAttach

	// Peak residency across the four core databases.
	Registered int `json:"registered_vlr"`
	Attached   int `json:"attached_sgsn"`
	ActivePDP  int `json:"active_pdp_ggsn"`
	Rejects    int `json:"rejects"`

	scaleCalls

	// Mobility churn: every subscriber re-registers (new LAI) and
	// re-attaches on a fresh foreign TLLI.
	ChurnOps    int     `json:"churn_ops"`
	ChurnPerSec float64 `json:"churn_per_sec"`

	scaleAudit
}

// ScaleFullPoint is one population size of the full-stack scale experiment:
// the complete Fig 2(b) signalling chain — VMSC registration (Fig 4: VLR
// location update, GPRS attach, signalling-PDP activation, gatekeeper RRQ)
// and end-to-end MS-to-MS call setup (Figs 5-6: SIFOC, ARQ/ACF admission,
// Q.931 via the GGSN hairpin, paging, MT answer, voice-PDP activation on
// both legs, then release) — with the whole population resident in one
// process. Where ScalePoint isolates the core databases, this point charges
// every per-subscriber surface at once: the VMSC's MS table with its hosted
// GPRS clients, the VLR/HLR records, the SGSN/GGSN contexts, the gatekeeper
// registration table, and the H.323 directory.
type ScaleFullPoint struct {
	Topology string `json:"topology"` // always "full-stack"
	scaleAttach

	// Peak residency across the stack.
	RegisteredVMSC int `json:"registered_vmsc"`
	GKRegistered   int `json:"gk_registered"`
	ActivePDP      int `json:"active_pdp_ggsn"`
	Rejects        int `json:"rejects"`

	scaleCalls

	// Host parallelism at measurement time (as BENCH_engine.json records).
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`

	scaleAudit
}

// scaleQoS is the signalling-PDP profile every core-only subscriber
// activates.
var scaleQoS = gtp.QoSProfile{Precedence: 2, DelayClass: 4, PeakThroughputKbps: 64}

// scaleCell is the single cell the load reports for every subscriber.
var scaleCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}

const scaleWave = 10_000

// scaleHold is how long a full-stack call stays up: long enough in
// simulated time for both voice-PDP activations to land.
const scaleHold = 100 * time.Millisecond

// scaleMS names the i-th subscriber's MS in the full-stack run. The name
// is carried in radio messages and retained by the VMSC's MS table, so it
// is part of the per-subscriber cost that run charges.
func scaleMS(i int) sim.NodeID { return sim.NodeID(fmt.Sprintf("MS%07d", i+1)) }

// loadNode is the scale runs' load generator. In the core-only run it
// plays every VMSC at once — the Gb peer for attach/activate and the MAP
// client for location updates — so the measured state is purely the core
// databases'; its one per-subscriber table (the P-TMSIs) is allocated up
// front, before the memory baseline. In the full-stack run it plays the
// BSC and every MS on the VMSC's A interface: location updates in, the
// radio half of call setup answered (paging response, MT alerting and
// answer, MO hangup after a short hold), keeping no per-subscriber state.
// In both it also plays the HLR's cancel role towards the VLR.
type loadNode struct {
	n      int
	ptmsis []uint32 // core-only: each subscriber's P-TMSI

	accepts int
	rejects int
	calls   int // call setups completed
}

func (d *loadNode) ID() sim.NodeID { return "LOAD" }

func (d *loadNode) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	// Core-only: the SGSN's and VLR's answers.
	case gb.DLUnitdata:
		pdu, err := gprs.ParsePDU(m.PDU)
		if err != nil {
			return
		}
		switch sm := pdu.SM.(type) {
		case gprs.AttachAccept:
			// Foreign TLLIs are issued as round*n + i + 1, so the
			// subscriber index follows from the TLLI alone.
			idx := (int(uint32(m.TLLI)) - 1) % d.n
			first := d.ptmsis[idx] == 0
			d.ptmsis[idx] = uint32(sm.PTMSI)
			if first {
				d.accepts++
				out, err := gprs.WrapSM(gprs.ActivatePDPRequest{NSAPI: 5, QoS: scaleQoS})
				if err != nil {
					return
				}
				env.Send(d.ID(), "SGSN-1", gb.ULUnitdata{
					TLLI: gsmid.LocalTLLI(sm.PTMSI), MS: d.ID(), Cell: scaleCell, PDU: out,
				})
			}
		case gprs.AttachReject, gprs.ActivatePDPReject:
			d.rejects++
		}
	case sigmap.SendInfoForOutgoingCallAck:
		d.calls++

	// Full stack: the VMSC's A-interface traffic.
	case gsm.LocationUpdateAccept:
		d.accepts++
	case gsm.LocationUpdateReject:
		d.rejects++
	case gsm.Paging:
		// Fig 6 step 4.4: the paged MS answers immediately.
		env.Send(d.ID(), from, gsm.PagingResponse{Leg: gsm.LegA, MS: m.MS, Identity: m.Identity})
	case gsm.Setup:
		// MT Setup down the radio path (step 4.5): ring, then answer.
		env.Send(d.ID(), from, gsm.Alerting{Leg: gsm.LegA, MS: m.MS, CallRef: m.CallRef})
		env.Send(d.ID(), from, gsm.Connect{Leg: gsm.LegA, MS: m.MS, CallRef: m.CallRef})
	case gsm.Connect:
		// The MO leg answered end to end: the call set up. Hold it for
		// scaleHold, then hang up.
		d.calls++
		ms, ref := m.MS, m.CallRef
		env.After(scaleHold, func() {
			env.Send(d.ID(), from, gsm.Disconnect{Leg: gsm.LegA, MS: ms, CallRef: ref})
		})
	}
}

// scaleRun is what one scale run measured: the core-only point's fields,
// plus the full stack's VMSC and gatekeeper residency.
type scaleRun struct {
	ScalePoint
	registeredVMSC, gkRegistered int
}

// runScale attaches subs subscribers to the scale topology — the full
// Fig 2(b) stack with fullStack, the core databases alone without — and
// measures bytes/subscriber, attach throughput, call-setup throughput at
// full residency, mobility churn (core-only), and full recycling.
func runScale(seed int64, subs int, fullStack bool) (scaleRun, error) {
	var r scaleRun
	p := &r.ScalePoint
	p.Subs = subs
	d := &loadNode{n: subs}
	if !fullStack {
		d.ptmsis = make([]uint32, subs)
	}
	n := netsim.BuildScale(seed, subs, fullStack, d)
	env := n.Env

	// inWaves runs op on subscribers [lo, hi), quiescing the network after
	// every scaleWave of them so the event queue never holds more.
	inWaves := func(lo, hi int, op func(i int) error) error {
		for ; lo < hi; lo += scaleWave {
			for i := lo; i < min(lo+scaleWave, hi); i++ {
				if err := op(i); err != nil {
					return err
				}
			}
			env.Run()
		}
		return nil
	}

	// attach provisions and fully registers subscriber i. Full stack: one
	// LocationUpdate, and the VMSC runs the whole Fig 4 chain before the
	// accept comes back. Core-only: a MAP location update into the VLR and
	// a GPRS attach into the SGSN (the load chains the PDP activation on
	// accept), in the location area of the given round.
	attach := func(round int) func(i int) error {
		return func(i int) error {
			sub := netsim.SubscriberN(i)
			if round == 0 {
				if err := n.HLR.Provision(hlr.Subscriber{
					IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: [16]byte{byte(i), byte(i >> 8), 0x5A},
					Profile: sigmap.SubscriberProfile{
						MSISDN: sub.MSISDN, InternationalAllowed: true, VoIPQoS: 1,
					},
				}); err != nil {
					return err
				}
			}
			if fullStack {
				env.Send("LOAD", "VMSC-1", gsm.LocationUpdate{
					Leg: gsm.LegA, MS: scaleMS(i),
					Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: sub.IMSI},
					LAI:      scaleCell.LAI,
				})
				return nil
			}
			lai := scaleCell.LAI
			lai.LAC = uint16(1 + round%2)
			env.Send("LOAD", "VLR-1", sigmap.UpdateLocationArea{
				Invoke:   ss7.InvokeID(i + 1),
				Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: sub.IMSI},
				LAI:      lai, MSC: "LOAD",
			})
			out, err := gprs.WrapSM(gprs.AttachRequest{IMSI: sub.IMSI})
			if err != nil {
				return err
			}
			env.Send("LOAD", "SGSN-1", gb.ULUnitdata{
				TLLI: gsmid.TLLI(uint32(round*subs + i + 1)),
				MS:   "LOAD", Cell: scaleCell, PDU: out,
			})
			return nil
		}
	}

	// Flat attach, wave by wave. The first wave warms every pool and
	// table the harness itself owns (event queue capacity, dialogue maps,
	// wire buffers); the baseline is read after it so the delta measures
	// per-subscriber state, not amortised infrastructure (DESIGN.md §8).
	warm := min(max(subs/10, 2), scaleWave)
	start := time.Now()
	if err := inWaves(0, warm, attach(0)); err != nil {
		return r, err
	}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	if err := inWaves(warm, subs, attach(0)); err != nil {
		return r, err
	}
	p.AttachWallSec = time.Since(start).Seconds()
	var full runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&full)
	p.WarmSubs = warm
	if full.HeapAlloc > base.HeapAlloc {
		p.HeapDeltaBytes = full.HeapAlloc - base.HeapAlloc
	}
	p.BytesPerSub = float64(p.HeapDeltaBytes) / float64(subs-warm)
	p.AttachPerSec = float64(subs) / p.AttachWallSec

	p.Registered = n.VLR.Registered()
	p.Attached = n.SGSN.Attached()
	p.ActivePDP = n.GGSN.ActiveContexts()
	p.Rejects = d.rejects
	complete := d.accepts == subs && p.Registered == subs && p.Attached == subs && p.ActivePDP == subs
	if fullStack {
		r.registeredVMSC, r.gkRegistered = n.VMSC.MSTable(), n.GK.Registered()
		complete = complete && r.registeredVMSC == subs && r.gkRegistered == subs
	}
	if !complete {
		return r, fmt.Errorf("experiments: scale population incomplete: accepts %d VLR %d SGSN %d GGSN %d VMSC %d GK %d of %d (%d rejects)",
			d.accepts, p.Registered, p.Attached, p.ActivePDP, r.registeredVMSC, r.gkRegistered, subs, d.rejects)
	}

	// Call setup with the full population resident, sampled across the
	// subscriber range. Core-only: MAP SIFOC authorizations against the
	// VLR. Full stack: the low half of the population calls the high half
	// in disjoint pairs, each call torn down after a short hold so waves
	// cannot collide.
	callers := subs
	if fullStack {
		callers = subs / 2
	}
	p.CallSetupOps = min(callers, 20_000)
	stride := callers / p.CallSetupOps
	start = time.Now()
	err := inWaves(0, p.CallSetupOps, func(k int) error {
		caller := k * stride
		if fullStack {
			env.Send("LOAD", "VMSC-1", gsm.Setup{
				Leg: gsm.LegA, MS: scaleMS(caller), CallRef: uint32(k + 1),
				Called: netsim.SubscriberN(caller + subs/2).MSISDN,
			})
			return nil
		}
		env.Send("LOAD", "VLR-1", sigmap.SendInfoForOutgoingCall{
			Invoke:   ss7.InvokeID(k + 1),
			Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: netsim.SubscriberN(caller).IMSI},
			Called:   "88620000001",
		})
		return nil
	})
	if err != nil {
		return r, err
	}
	p.CallSetupPerSec = float64(p.CallSetupOps) / time.Since(start).Seconds()
	if fullStack && (d.calls != p.CallSetupOps || n.VMSC.ActiveCalls() != 0) {
		return r, fmt.Errorf("experiments: full-stack calls incomplete: %d of %d established, %d still active",
			d.calls, p.CallSetupOps, n.VMSC.ActiveCalls())
	}

	if !fullStack {
		// Mobility churn: one full round — every subscriber re-registers
		// in the other location area and re-attaches on a fresh foreign
		// TLLI (the path that used to leak stale TLLI index entries).
		start = time.Now()
		if err := inWaves(0, subs, attach(1)); err != nil {
			return r, err
		}
		p.ChurnOps = subs
		p.ChurnPerSec = float64(subs) / time.Since(start).Seconds()
	}

	// Cancel-all: one CancelLocation per subscriber into the VLR (the full
	// stack's VMSC then unwinds the gatekeeper alias, the GPRS contexts
	// and the directory binding), plus a GPRS detach in the core-only run.
	// Then audit: every slab slot must be back on its free-list and every
	// index entry gone.
	err = inWaves(0, subs, func(i int) error {
		if !fullStack {
			out, err := gprs.WrapSM(gprs.DetachRequest{})
			if err != nil {
				return err
			}
			env.Send("LOAD", "SGSN-1", gb.ULUnitdata{
				TLLI: gsmid.LocalTLLI(gsmid.PTMSI(d.ptmsis[i])),
				MS:   "LOAD", Cell: scaleCell, PDU: out,
			})
		}
		env.Send("LOAD", "VLR-1", sigmap.CancelLocation{
			Invoke: ss7.InvokeID(i + 1), IMSI: netsim.SubscriberN(i).IMSI,
		})
		return nil
	})
	if err != nil {
		return r, err
	}
	resident, residual := n.Resident(), n.Residual()
	p.DetachLeftover = resident.Total()
	p.SlabImbalance = residual.Count(netsim.SlabImbalance)
	return r, nil
}

// RunScale attaches `subs` subscribers to the core-only topology (HLR,
// VLR, SGSN, GGSN) and measures bytes/subscriber, attach throughput,
// call-setup throughput at full residency, mobility-churn throughput, and
// full detach recycling.
func RunScale(seed int64, subs int) (ScalePoint, error) {
	if subs < 4 {
		return ScalePoint{}, fmt.Errorf("experiments: scale needs at least 4 subscribers, got %d", subs)
	}
	r, err := runScale(seed, subs, false)
	return r.ScalePoint, err
}

// RunScaleFull attaches `subs` subscribers through the complete Fig 2(b)
// topology — real VMSC, VLR, HLR, SGSN, GGSN, GI router, and gatekeeper —
// and measures bytes/subscriber at full residency, registration throughput,
// end-to-end call-setup throughput, and full recycling via CancelLocation.
func RunScaleFull(seed int64, subs int) (ScaleFullPoint, error) {
	p := ScaleFullPoint{Topology: "full-stack", GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	p.Subs = subs
	if subs < 8 {
		return p, fmt.Errorf("experiments: full-stack scale needs at least 8 subscribers, got %d", subs)
	}
	r, err := runScale(seed, subs, true)
	p.scaleAttach, p.scaleCalls, p.scaleAudit = r.scaleAttach, r.scaleCalls, r.scaleAudit
	p.RegisteredVMSC, p.GKRegistered, p.ActivePDP, p.Rejects = r.registeredVMSC, r.gkRegistered, r.ActivePDP, r.Rejects
	return p, err
}

// ScaleSweep is the scale experiment's result: every population size on
// the core-only topology, then every size on the full stack.
type ScaleSweep struct {
	Core      []ScalePoint     `json:"core,omitempty"`
	FullStack []ScaleFullPoint `json:"full_stack,omitempty"`
}

// RunScaleSweep runs RunScale at each population size, then RunScaleFull.
func RunScaleSweep(seed int64, sizes []int) (ScaleSweep, error) {
	var s ScaleSweep
	var err error
	if s.Core, err = sweepSizes(seed, sizes, RunScale); err != nil {
		return s, err
	}
	s.FullStack, err = sweepSizes(seed, sizes, RunScaleFull)
	return s, err
}

// sweepSizes runs one scale experiment at each population size in turn.
func sweepSizes[P any](seed int64, sizes []int, run func(int64, int) (P, error)) ([]P, error) {
	var points []P
	for _, n := range sizes {
		pt, err := run(seed, n)
		if err != nil {
			return points, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// String renders both sweeps as their report tables.
func (s ScaleSweep) String() string {
	core := metrics.NewTable(
		"SCALE: slab-backed core residency and throughput",
		"subscribers", "bytes/sub", "attach/s", "call setup/s", "churn/s", "leftover", "imbalance")
	for _, p := range s.Core {
		core.AddRow(scaleRow(p.scaleAttach, p.scaleCalls, p.scaleAudit, fmt.Sprintf("%.0f", p.ChurnPerSec))...)
	}
	full := metrics.NewTable(
		"SCALE-FULL: full-stack residency and throughput (Fig 2(b) topology)",
		"subscribers", "bytes/sub", "attach/s", "call setup/s", "leftover", "imbalance")
	for _, p := range s.FullStack {
		full.AddRow(scaleRow(p.scaleAttach, p.scaleCalls, p.scaleAudit)...)
	}
	return strings.Join([]string{core.String(), full.String()}, "\n\n")
}

// scaleRow renders the columns both scale tables share, with any extra
// columns between the throughputs and the recycle audit.
func scaleRow(a scaleAttach, c scaleCalls, au scaleAudit, extra ...string) []string {
	row := []string{
		fmt.Sprintf("%d", a.Subs), fmt.Sprintf("%.0f", a.BytesPerSub),
		fmt.Sprintf("%.0f", a.AttachPerSec), fmt.Sprintf("%.0f", c.CallSetupPerSec),
	}
	row = append(row, extra...)
	return append(row, fmt.Sprintf("%d", au.DetachLeftover), fmt.Sprintf("%d", au.SlabImbalance))
}
