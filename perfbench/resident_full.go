package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

var (
	residentGK   = ipnet.MustAddr("192.168.1.1")
	residentCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}
)

// residentDriver plays the BSC and every MS at once, like the full-stack
// scale experiment's driver: it feeds location updates into the VMSC's A
// interface and answers the radio half of call setup. It keeps no
// per-subscriber state, so the measured heap belongs to the network
// elements; it records each call's virtual setup time by call reference.
type residentDriver struct {
	vmsc sim.NodeID
	hold time.Duration

	accepts, rejects, established int
	dropAccepts                   int // test hook: accepts to ignore

	dialedAt time.Duration   // virtual time the current call wave was dialled
	setup    []time.Duration // virtual setup time per call reference - 1
}

func (d *residentDriver) ID() sim.NodeID { return "LOAD" }

func (d *residentDriver) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch t := msg.(type) {
	case gsm.LocationUpdateAccept:
		if d.dropAccepts > 0 {
			d.dropAccepts--
			return
		}
		d.accepts++
	case gsm.LocationUpdateReject:
		d.rejects++
	case gsm.Paging:
		env.Send(d.ID(), d.vmsc, gsm.PagingResponse{Leg: gsm.LegA, MS: t.MS, Identity: t.Identity})
	case gsm.Setup:
		env.Send(d.ID(), d.vmsc, gsm.Alerting{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		env.Send(d.ID(), d.vmsc, gsm.Connect{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
	case gsm.Connect:
		// The MO leg answered end to end: the call is set up. Hold it
		// long enough for both voice-PDP activations, then hang up.
		d.established++
		if i := int(t.CallRef) - 1; i >= 0 && i < len(d.setup) {
			d.setup[i] = env.Now() - d.dialedAt
		}
		ms, ref := t.MS, t.CallRef
		env.After(d.hold, func() {
			env.Send(d.ID(), d.vmsc, gsm.Disconnect{Leg: gsm.LegA, MS: ms, CallRef: ref})
		})
	}
}

// residentNet is the complete Fig 2(b) core — VMSC, VLR, HLR, SGSN, GGSN,
// GI router and gatekeeper — assembled from the node constructors, with the
// driver in place of the radio access network.
type residentNet struct {
	env  *sim.Env
	dir  *h323.Directory
	h    *hlr.HLR
	v    *vlr.VLR
	sgsn *gprs.SGSN
	ggsn *gprs.GGSN
	gk   *h323.Gatekeeper
	vm   *vmsc.VMSC
	d    *residentDriver

	dirBase int
	subs    []residentSub // attach order
	calls   [][2]int      // caller, callee indexes into subs
}

type residentSub struct {
	imsi   gsmid.IMSI
	msisdn gsmid.MSISDN
	ms     sim.NodeID
}

// newResidentNet builds the topology and the seeded inputs: the identity
// block, the attach order, and the disjoint call pairs.
func newResidentNet(cfg *config, tr *tracing) *residentNet {
	subs := cfg.ResidentSubs
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := 10_000_000 + rng.Intn(80_000_000-subs)
	n := &residentNet{env: sim.NewEnv(cfg.Seed), dir: h323.NewDirectory()}
	n.subs = make([]residentSub, subs)
	for i, k := range rng.Perm(subs) {
		id := base + k
		n.subs[i] = residentSub{
			imsi:   gsmid.IMSI(fmt.Sprintf("46692%010d", id)),
			msisdn: gsmid.MSISDN(fmt.Sprintf("8869%08d", id)),
			ms:     sim.NodeID(fmt.Sprintf("MS%08d", id)),
		}
	}
	// Callers and callees are disjoint: a seeded permutation split in two.
	perm := rng.Perm(subs)
	n.calls = make([][2]int, cfg.ResidentCalls)
	for k := range n.calls {
		n.calls[k] = [2]int{perm[2*k], perm[2*k+1]}
	}

	n.h = hlr.New(hlr.Config{ID: "HLR"})
	n.v = vlr.New(vlr.Config{
		ID: "VLR-1", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690000",
		AuthDisabled: true,
	})
	n.sgsn = gprs.NewSGSN(gprs.SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1", HLR: "HLR"})
	n.ggsn = gprs.NewGGSN(gprs.GGSNConfig{
		ID: "GGSN-1", PoolPrefix: "10.0.0.0", PoolSize: subs + 2, Gi: "GI", HLR: "HLR",
	})
	router := ipnet.NewRouter("GI")
	n.gk = h323.NewGatekeeper(h323.GatekeeperConfig{ID: "GK", Addr: residentGK, Router: "GI", Dir: n.dir})
	router.AddHost(residentGK, "GK")
	router.AddPrefix(netip.MustParsePrefix("10.0.0.0/8"), "GGSN-1")
	n.dir.Bind(residentGK, "GK")
	n.vm = vmsc.New(vmsc.Config{
		ID: "VMSC-1", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell: residentCell, Gatekeeper: residentGK, Dir: n.dir,
	})
	n.d = &residentDriver{
		vmsc: "VMSC-1", hold: 100 * time.Millisecond,
		dropAccepts: cfg.dropAccepts,
		setup:       make([]time.Duration, cfg.ResidentCalls),
	}
	for _, node := range []sim.Node{n.h, n.v, n.vm, n.sgsn, n.ggsn, router, n.gk, n.d} {
		if tr != nil {
			node = tr.wrap(node)
		}
		n.env.AddNode(node)
	}
	const lat = 50 * time.Microsecond
	n.env.Connect("LOAD", "VMSC-1", "A", lat)
	n.env.Connect("LOAD", "VLR-1", "B", lat) // plays the HLR's cancel role
	n.env.Connect("VMSC-1", "VLR-1", "B", lat)
	n.env.Connect("VLR-1", "HLR", "D", lat)
	n.env.Connect("VMSC-1", "SGSN-1", "Gb", lat)
	n.env.Connect("SGSN-1", "GGSN-1", "Gn", lat)
	n.env.Connect("SGSN-1", "HLR", "Gr", lat)
	n.env.Connect("GGSN-1", "HLR", "Gc", lat)
	n.env.Connect("GGSN-1", "GI", "Gi", lat)
	n.env.Connect("GI", "GK", "IP", lat)
	n.dirBase = n.dir.Bound()
	return n
}

// runResidentFull attaches the population wave by wave, sets up the call
// pairs at full residency, then cancels every subscriber. Each op is one
// wave of ResidentWave procedures. A cycle runs on a fresh topology and
// cannot be cut short, so the run repeats whole cycles until the budget is
// spent.
func runResidentFull(l *loop) {
	cfg := l.cfg
	if 2*cfg.ResidentCalls > cfg.ResidentSubs || cfg.ResidentWave < 1 {
		l.res.Attempted++
		l.res.fail("config: %d calls need %d subscribers, have %d", cfg.ResidentCalls, 2*cfg.ResidentCalls, cfg.ResidentSubs)
		return
	}
	l.population = cfg.ResidentSubs
	var n *residentNet
	if err := l.setup(func() error { n = newResidentNet(cfg, l.tr); return nil }); err != nil {
		return
	}
	var ph residentPhases
	for cycle := 0; cycle == 0 || !l.done(); cycle++ {
		if cycle > 0 {
			n = nil
			runtime.GC()
			n = newResidentNet(cfg, l.tr)
		}
		ph.cycle(l, n)
	}
	l.res.WorkUnit = "procedures"
	l.res.Named = append(l.res.Named,
		named{"register_per_s", ph.rate(0), "1/s"},
		named{"call_setup_per_s", ph.rate(1), "1/s"},
		named{"cancel_per_s", ph.rate(2), "1/s"},
		named{"bytes_per_sub", l.res.BytesPerSub, "B"},
		named{"virt_setup_ms", l.res.Sim.VirtSetupMs, "ms"},
	)
}

// residentPhases sums untraced wall time and procedures per phase:
// attach, call setup, cancel.
type residentPhases struct {
	wall  [3]time.Duration
	procs [3]int
}

func (p *residentPhases) rate(i int) float64 {
	if p.wall[i] <= 0 {
		return 0
	}
	return float64(p.procs[i]) / p.wall[i].Seconds()
}

// wave runs one op: send the wave's procedures, run to quiescence, check.
func (p *residentPhases) wave(l *loop, n *residentNet, phase, size int, send func(), check func() error) {
	l.op(func(traced bool) opOut {
		if traced {
			l.tr.attach(n.env)
		} else {
			n.env.SetTracer(nil)
		}
		d0 := n.env.Delivered()
		t0 := time.Now()
		send()
		sp := l.span("sim.Run")
		r0 := time.Now()
		n.env.Run()
		out := opOut{runWall: time.Since(r0)}
		l.endSpan(sp)
		out.delivered = n.env.Delivered() - d0
		out.err = check()
		if out.err == nil {
			out.work = float64(size)
		}
		if !traced {
			p.wall[phase] += time.Since(t0)
			p.procs[phase] += size
		}
		return out
	})
}

func (p *residentPhases) cycle(l *loop, n *residentNet) {
	cfg := l.cfg
	subs, w := cfg.ResidentSubs, cfg.ResidentWave
	d := n.d

	// Attach, with the DESIGN.md §8 warm-wave baseline after the first
	// tenth of the population.
	warm, warmSubs := max(subs/10, 1), 0
	var base runtime.MemStats
	for lo := 0; lo < subs; lo += w {
		hi := min(lo+w, subs)
		acc0 := d.accepts
		var provErr error
		p.wave(l, n, 0, hi-lo, func() {
			for i := lo; i < hi; i++ {
				s := n.subs[i]
				if err := n.h.Provision(hlr.Subscriber{
					IMSI: s.imsi, MSISDN: s.msisdn, Ki: [16]byte{byte(i), byte(i >> 8), 0x5A},
					Profile: sigmap.SubscriberProfile{MSISDN: s.msisdn, InternationalAllowed: true, VoIPQoS: 1},
				}); err != nil && provErr == nil {
					provErr = fmt.Errorf("provision %s: %w", s.imsi, err)
				}
				n.env.Send("LOAD", "VMSC-1", gsm.LocationUpdate{
					Leg: gsm.LegA, MS: s.ms,
					Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: s.imsi},
					LAI:      residentCell.LAI,
				})
			}
		}, func() error {
			if provErr != nil {
				return provErr
			}
			if got := d.accepts - acc0; got != hi-lo || d.rejects != 0 {
				return fmt.Errorf("attach wave [%d,%d): %d accepts, %d rejects", lo, hi, got, d.rejects)
			}
			if hi == subs {
				if vm, gk, gg := n.vm.MSTable(), n.gk.Registered(), n.ggsn.ActiveContexts(); vm != subs || gk != subs || gg != subs {
					return fmt.Errorf("residency VMSC %d, GK %d, GGSN %d of %d", vm, gk, gg, subs)
				}
			}
			return nil
		})
		if lo < warm && hi >= warm {
			warmSubs = hi
			runtime.GC()
			runtime.ReadMemStats(&base)
		}
	}
	var full runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&full)
	if full.HeapAlloc > base.HeapAlloc && subs > warmSubs {
		l.res.BytesPerSub = float64(full.HeapAlloc-base.HeapAlloc) / float64(subs-warmSubs)
	}

	// MS-to-MS call setup at full residency, in disjoint pairs.
	for lo := 0; lo < len(n.calls); lo += w {
		hi := min(lo+w, len(n.calls))
		est0 := d.established
		p.wave(l, n, 1, hi-lo, func() {
			d.dialedAt = n.env.Now()
			for k := lo; k < hi; k++ {
				caller, callee := n.subs[n.calls[k][0]], n.subs[n.calls[k][1]]
				n.env.Send("LOAD", "VMSC-1", gsm.Setup{
					Leg: gsm.LegA, MS: caller.ms, CallRef: uint32(k + 1), Called: callee.msisdn,
				})
			}
		}, func() error {
			if got, active := d.established-est0, n.vm.ActiveCalls(); got != hi-lo || active != 0 {
				return fmt.Errorf("call wave [%d,%d): %d established, %d still active", lo, hi, got, active)
			}
			return nil
		})
	}
	if len(d.setup) > 0 {
		s := append([]time.Duration(nil), d.setup...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		l.res.Sim.VirtSetupMs = ms(s[len(s)/2])
	}

	// Cancel-all: one CancelLocation per subscriber into the VLR, which
	// relays to the VMSC; the VMSC unwinds the gatekeeper alias, the GPRS
	// contexts and the directory binding, and frees the slab rows.
	for lo := 0; lo < subs; lo += w {
		hi := min(lo+w, subs)
		p.wave(l, n, 2, hi-lo, func() {
			for i := lo; i < hi; i++ {
				n.env.Send("LOAD", "VLR-1", sigmap.CancelLocation{Invoke: ss7.InvokeID(i + 1), IMSI: n.subs[i].imsi})
			}
		}, func() error {
			if left := n.vm.MSTable(); left != subs-hi {
				return fmt.Errorf("cancel wave [%d,%d): VMSC holds %d, want %d", lo, hi, left, subs-hi)
			}
			if hi < subs {
				return nil
			}
			leftover := n.vm.MSTable() + n.gk.Registered() + n.v.Registered() +
				n.sgsn.Attached() + n.sgsn.ActiveContexts() + n.ggsn.ActiveContexts() +
				(n.dir.Bound() - n.dirBase)
			imbalance := n.vm.SlabImbalance() + n.gk.SlabImbalance() + n.v.SlabImbalance() +
				n.h.SlabImbalance() + n.sgsn.SlabImbalance() + n.ggsn.SlabImbalance()
			if leftover != 0 || imbalance != 0 {
				return fmt.Errorf("after cancel-all: %d leftover, %d slab imbalance", leftover, imbalance)
			}
			return nil
		})
	}
}
