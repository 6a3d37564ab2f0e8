package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tiny shrinks a workload so a run takes well under a second.
func tiny(t *testing.T, workload string) config {
	t.Helper()
	cfg, err := defaultConfig(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.Seconds = 0.001
	cfg.SetupRepeats = 2
	cfg.MaxOps = 4
	cfg.SmallMS = 4
	cfg.ResidentSubs, cfg.ResidentCalls, cfg.ResidentWave = 200, 40, 50
	cfg.TalkCalls = 2
	return cfg
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	return res
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at a tiny
// size, untraced and traced, and checks the final line carries exactly the
// declared metrics with their units, every end-to-end value non-zero.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, w.Name)
			cfg.Trace = traced
			if traced {
				cfg.SpanFile = filepath.Join(t.TempDir(), "spans.json")
			}
			res := mustRun(t, cfg)
			// Round-trip the final line as a consumer of the output reads it.
			b, err := json.Marshal(finalLine(cfg, res))
			if err != nil {
				t.Fatal(err)
			}
			var out finalOut
			if err := json.Unmarshal(b, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d failed of %d: %v", w.Name, traced, out.Correct, out.Failed, out.Attempted, res.Failures)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.SpanFile); err != nil {
					t.Errorf("%s: span log not written: %v", w.Name, err)
				}
			}
		}
	}
}

// TestInjectedFailureCounted drops one LocationUpdateAccept at the
// resident-full driver: the attach wave's check must fail, and the run
// must report it as a failed op rather than abort.
func TestInjectedFailureCounted(t *testing.T) {
	cfg := tiny(t, wlResidentFull)
	cfg.dropAccepts = 1
	res := mustRun(t, cfg)
	out := finalLine(cfg, res)
	if out.Correct || out.Failed != 1 || out.Attempted < 2 {
		t.Fatalf("correct %v, %d failed of %d, want exactly one failed op", out.Correct, out.Failed, out.Attempted)
	}
}

// TestSimulatedStatsRepeat runs each workload twice at the same seed: the
// simulated statistics must be identical.
func TestSimulatedStatsRepeat(t *testing.T) {
	for _, wl := range []string{wlRegisterSmall, wlResidentFull, wlTalkSharded} {
		a := mustRun(t, tiny(t, wl))
		b := mustRun(t, tiny(t, wl))
		if !reflect.DeepEqual(a.Sim, b.Sim) {
			t.Errorf("%s: simulated statistics differ between runs:\n%+v\n%+v", wl, a.Sim, b.Sim)
		}
		if a.Sim.DeliveredFirst == 0 {
			t.Errorf("%s: no deliveries counted", wl)
		}
	}
}

// TestTalkShardedMatchesSequential is the engine's determinism contract on
// the talk workload: the simulated statistics are the same at 1 and 2
// shards.
func TestTalkShardedMatchesSequential(t *testing.T) {
	var sims []simStats
	var media [][]named
	for _, shards := range []int{1, 2} {
		cfg := tiny(t, wlTalkSharded)
		cfg.TalkShards = shards
		res := mustRun(t, cfg)
		if res.Failed != 0 {
			t.Fatalf("shards %d: %v", shards, res.Failures)
		}
		sims = append(sims, res.Sim)
		var m []named
		for _, n := range res.Named {
			if n.Unit != "1/s" { // host rates differ; simulated quantities must not
				m = append(m, n)
			}
		}
		media = append(media, m)
	}
	if !reflect.DeepEqual(sims[0], sims[1]) {
		t.Errorf("simulated statistics differ between 1 and 2 shards:\n%+v\n%+v", sims[0], sims[1])
	}
	if !reflect.DeepEqual(media[0], media[1]) {
		t.Errorf("media results differ between 1 and 2 shards:\n%+v\n%+v", media[0], media[1])
	}
}
