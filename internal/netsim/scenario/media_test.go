package scenario

import (
	"testing"
	"time"

	"vgprs/internal/netsim"
)

// TestMediaDeterministicAcrossShards locks the talk path itself — every
// 20 ms frame through the hairpin, including the reusable-message fast
// path and the chaos loss/jitter draws — to a byte-identical trace and
// bit-identical per-call MOS at every shard count.
//
// The lossless case runs the 2 ms Gb/Gn jitter of the talk-sharded
// benchmark and the media sweep: jitter bunches downlink frames at the
// VMSC, so one frame is transcoded while the previous one is still on its
// way to the MS on the radio shard. Under the race detector it fails if
// the two share a buffer.
func TestMediaDeterministicAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    MediaConfig
		shards []int
	}{
		{"loss", MediaConfig{
			Seed: 5, Calls: 3, Waves: 2,
			TalkTime: 5 * time.Second, LossRate: 0.02,
			Jitter: 2 * time.Millisecond, Trace: true,
		}, shardCounts},
		{"jitter", MediaConfig{
			Seed: 5, Calls: 4, Waves: 1,
			TalkTime: 5 * time.Second,
			Jitter:   2 * time.Millisecond, Trace: true,
		}, []int{1, 2}},
	} {
		var base *MediaResult
		for _, shards := range tc.shards {
			cfg := tc.cfg
			cfg.Shards = shards
			res, err := RunMedia(cfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			if res.Frames == 0 || res.FramesExpected == 0 {
				t.Fatalf("%s shards=%d: inert run: %+v", tc.name, shards, res)
			}
			if cfg.LossRate > 0 && res.RTPLost == 0 {
				t.Fatalf("%s shards=%d: loss matrix never dropped a frame: %+v", tc.name, shards, res)
			}
			if cfg.LossRate == 0 && res.Frames != res.FramesExpected {
				t.Fatalf("%s shards=%d: lossless run played %d of %d frames", tc.name, shards, res.Frames, res.FramesExpected)
			}
			if want := cfg.Calls * cfg.Waves; len(res.PerCallMOS) != want {
				t.Fatalf("%s shards=%d: scored %d calls, want %d", tc.name, shards, len(res.PerCallMOS), want)
			}
			if base == nil {
				r := res
				base = &r
				continue
			}
			compareFingerprints(t, "media "+tc.name, shards, base.Fingerprint, res.Fingerprint)
			if base.Frames != res.Frames || base.RTPLost != res.RTPLost ||
				base.RTPReordered != res.RTPReordered {
				t.Errorf("%s shards=%d: frame counters diverge: base %+v, got %+v", tc.name, shards, *base, res)
			}
			for i, mos := range res.PerCallMOS {
				if mos != base.PerCallMOS[i] {
					t.Errorf("%s shards=%d: call %d MOS %v, want exactly %v", tc.name, shards, i, mos, base.PerCallMOS[i])
				}
			}
		}
	}
}

// TestMediaLosslessScoresTollQuality pins the clean-path bound the bench
// artifact relies on: with no faults, every call scores >= 4.0 and no
// frame goes missing.
func TestMediaLosslessScoresTollQuality(t *testing.T) {
	res, err := RunMedia(MediaConfig{Seed: 2, Calls: 4, TalkTime: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != res.FramesExpected || res.RTPLost != 0 {
		t.Fatalf("clean path lost frames: %+v", res)
	}
	for i, mos := range res.PerCallMOS {
		if mos < 4.0 {
			t.Errorf("call %d: lossless MOS %.2f < 4.0", i, mos)
		}
	}
}

// TestMediaChaosOutageDegradesAndRecovers is the media chaos regression:
// a mid-call Gn outage during wave 0 must crater that wave's scores and
// only that wave's — the same pairs score toll quality again in wave 1 —
// and the clear-down audit must find no residual frame or slab state.
func TestMediaChaosOutageDegradesAndRecovers(t *testing.T) {
	res, err := RunMedia(MediaConfig{
		Seed: 9, Calls: 3, Waves: 2, TalkTime: 6 * time.Second,
		Plan: netsim.FaultPlan{{
			A: "SGSN-1", B: "GGSN-1", Down: true,
			From: 2 * time.Second, Until: 4 * time.Second,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWaveMOS) != 2 {
		t.Fatalf("want 2 wave summaries, got %+v", res.PerWaveMOS)
	}
	hit, clean := res.PerWaveMOS[0], res.PerWaveMOS[1]
	if hit.Max >= clean.Min {
		t.Fatalf("outage wave best MOS %.2f not below clean wave worst %.2f",
			hit.Max, clean.Min)
	}
	if hit.Max >= 3.5 {
		t.Errorf("2s outage in a 6s talk window barely hurt: wave-0 MOS %+v", hit)
	}
	if clean.Min < 4.0 {
		t.Errorf("recovery wave below toll quality: %+v", clean)
	}
	if res.Residual != 0 {
		t.Errorf("residual state after outage run: %d", res.Residual)
	}
}
