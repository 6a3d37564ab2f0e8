package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// topologyGolden holds the wiring of every netsim topology and both scale
// runs. Regenerate it with UPDATE_GOLDEN=1 only when a topology is meant to
// change; a refactor of the builders must leave it byte-identical.
const topologyGolden = "testdata/topology.golden"

// goldenLatencies gives every interface class its own delay, so a link
// wired with the wrong class shows up in the dump.
var goldenLatencies = netsim.Latencies{
	Um: 10 * time.Millisecond, Abis: 2 * time.Millisecond, A: time.Millisecond,
	SS7: 5 * time.Millisecond, Gb: 3 * time.Millisecond, Gn: 4 * time.Millisecond,
	Gi: 6 * time.Millisecond, LAN: 7 * time.Millisecond,
	Intl: 40 * time.Millisecond, Natl: 8 * time.Millisecond,
}

// dumpTopology writes env's nodes in registration order, each with its
// shard and its outgoing links (sorted by peer) with interface and latency.
func dumpTopology(b *strings.Builder, name string, env *sim.Env) {
	fmt.Fprintf(b, "== %s ==\n", name)
	for _, n := range env.Nodes() {
		id := n.ID()
		fmt.Fprintf(b, "%s shard=%d\n", id, env.ShardOf(id))
		for _, to := range env.Neighbors(id) {
			l := env.LinkBetween(id, to)
			fmt.Fprintf(b, "  -> %s %s %v\n", to, l.Iface, l.Latency)
		}
	}
}

// TestTopologyGolden pins node registration order, shard placement and
// link wiring of every topology. Registration order fixes each node's
// event-key context and RNG stream, so any change here moves traces,
// fingerprints and deterministic BENCH numbers.
func TestTopologyGolden(t *testing.T) {
	lat := &goldenLatencies
	vg := func(shards int) netsim.VGPRSOptions {
		return netsim.VGPRSOptions{Seed: 1, NumMS: 3, NumTerminals: 2, Shards: shards, Latencies: lat}
	}
	var b strings.Builder
	dumpTopology(&b, "BuildVGPRS default latencies", netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1}).Env)
	dumpTopology(&b, "BuildVGPRS shards=1", netsim.BuildVGPRS(vg(1)).Env)
	dumpTopology(&b, "BuildVGPRS shards=2", netsim.BuildVGPRS(vg(2)).Env)
	dumpTopology(&b, "BuildTwoVMSC shards=2", netsim.BuildTwoVMSC(vg(2)).Env)
	dumpTopology(&b, "BuildTwoVMSC shards=3", netsim.BuildTwoVMSC(vg(3)).Env)
	dumpTopology(&b, "BuildHandoff shards=2", netsim.BuildHandoff(vg(2)).Env)
	dumpTopology(&b, "BuildHandoffVMSC shards=2", netsim.BuildHandoffVMSC(vg(2)).Env)
	dumpTopology(&b, "BuildMultiRegion shards=3", netsim.BuildMultiRegion(netsim.MultiRegionOptions{
		Seed: 1, Regions: 3, MSPerRegion: 2, Shards: 3, Latencies: lat,
	}).Env)
	dumpTopology(&b, "BuildDay shards=3", netsim.BuildDay(netsim.DayOptions{VGPRSOptions: vg(3), DataMS: 2}).Env)
	dumpTopology(&b, "BuildRoamingGSM", netsim.BuildRoamingGSM(1).Env)
	dumpTopology(&b, "BuildRoamingVGPRS", netsim.BuildRoamingVGPRS(1).Env)
	dumpTopology(&b, "scale core-only", netsim.BuildScale(1, 10, false, &loadNode{}).Env)
	dumpTopology(&b, "scale full-stack", netsim.BuildScale(1, 10, true, &loadNode{}).Env)
	got := b.String()

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(topologyGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(topologyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(topologyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("topology differs from %s at line %d:\n got: %s\nwant: %s", topologyGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("topology differs from %s: %d lines, want %d", topologyGolden, len(gl), len(wl))
	}
}
