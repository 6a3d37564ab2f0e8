package netsim

import (
	"net/netip"
	"testing"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/vmsc"
)

// TestHandoffKeepsVMSCMutate: the extended builders add their handover
// peers to VMSC-1's configuration, and that must not drop the caller's own
// VMSCMutate.
func TestHandoffKeepsVMSCMutate(t *testing.T) {
	for name, build := range map[string]func(VGPRSOptions) *VGPRSNet{
		"BuildHandoff":     func(o VGPRSOptions) *VGPRSNet { return BuildHandoff(o).VGPRSNet },
		"BuildHandoffVMSC": func(o VGPRSOptions) *VGPRSNet { return BuildHandoffVMSC(o).VGPRSNet },
		"BuildTwoVMSC":     func(o VGPRSOptions) *VGPRSNet { return BuildTwoVMSC(o).VGPRSNet },
	} {
		registered := 0
		n := build(VGPRSOptions{Seed: 1, NumMS: 2, VMSCMutate: func(c *vmsc.Config) {
			c.Hooks.OnMSRegistered = func(gsmid.IMSI, netip.Addr) { registered++ }
		}})
		if err := n.RegisterAll(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if registered != 2 {
			t.Errorf("%s: caller's VMSC hook saw %d registrations, want 2", name, registered)
		}
	}
}

// TestHandoffResidualAfterClearDown runs a call through a handover to the
// legacy MSC and clears it there, then audits the whole Fig 9 topology:
// the walk covers the legacy MSC, its BSC and both E trunk groups as well
// as the anchor.
func TestHandoffResidualAfterClearDown(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n)
	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("handover did not complete")
	}
	if r := n.Residual(); r.Count("trunks in use") != 1 || r.Count("active calls") == 0 {
		t.Fatalf("mid-call residual misses the handed-over call:\n%s", r.String())
	}
	n.Env.RunUntil(n.Env.Now() + time.Second)
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if r := n.Residual(); r.Total() != 0 {
		t.Fatalf("residual state after clear-down:\n%s", r.String())
	}
}

// TestMultiRegionResidual checks the walk on a topology that never had a
// hand-written audit: after registration every region drains to zero.
func TestMultiRegionResidual(t *testing.T) {
	for _, shards := range []int{1, 2} {
		n := BuildMultiRegion(MultiRegionOptions{Seed: 1, Regions: 3, MSPerRegion: 4, Shards: shards, NoTrace: true})
		if err := n.RegisterAll(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if r := n.Residual(); r.Total() != 0 {
			t.Fatalf("shards=%d: residual after registration:\n%s", shards, r.String())
		}
	}
}

// TestResidentCountsDurableState checks the durable half of the walk: a
// registered network holds one MS-table row, VLR record, attachment,
// gatekeeper registration and directory binding per MS, and none of it
// shows up in Residual.
func TestResidentCountsDurableState(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, NumMS: 3, NoTrace: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if r := n.Residual(); r.Total() != 0 {
		t.Fatalf("residual after registration:\n%s", r.String())
	}
	r := n.Resident()
	for _, kind := range []string{"registered MSs", "registered subscribers", "attached MSs", "bindings"} {
		if got := r.Count(kind); got != 3 {
			t.Errorf("resident %q = %d, want 3\n%s", kind, got, r.String())
		}
	}
	// The terminal registers with the gatekeeper alongside the three MSs.
	if got := r.Count("registrations"); got != 4 {
		t.Errorf("gatekeeper registrations = %d, want 4", got)
	}
}
