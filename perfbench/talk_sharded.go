package main

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// talkJitter is the media legs' delay jitter during the talk window, as in
// the media sweep.
const talkJitter = 2 * time.Millisecond

// talkNet is a talk-enabled Fig 2(b) network with TalkCalls MS-to-MS calls
// up: MS 2i calls MS 2i+1.
type talkNet struct {
	*netsim.VGPRSNet
	frames uint64 // listeners' played-out frames at the last op boundary
}

// newTalkNet builds the network on TalkShards shards (radio access on shard
// 1, core on shard 0), registers every MS, sets up the calls, and starts
// the talk window with delay jitter on the media legs, as in the media
// sweep.
func newTalkNet(cfg *config, res *result) (*talkNet, error) {
	t0 := time.Now()
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed: cfg.Seed, NumMS: 2 * cfg.TalkCalls, Talk: true,
		NoTrace: true, Sig: netsim.ChaosSigProfile(), Shards: cfg.TalkShards,
	})
	res.BuildWall += time.Since(t0)
	res.Builds++
	if err := n.RegisterAll(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.TalkCalls; i++ {
		if err := n.MSs[2*i].Dial(n.Env, n.Subscribers[2*i+1].MSISDN); err != nil {
			return nil, err
		}
	}
	if !runUntil(n.Env, 30*time.Second, func() bool { return allIn(n.MSs, gsm.MSInCall) }) {
		return nil, fmt.Errorf("calls not up after 30 virtual seconds")
	}
	for _, ms := range n.MSs {
		ms.ResetMedia()
	}
	if err := netsim.MediaChaosPlan(0, talkJitter, 0, 0).Apply(n.Env); err != nil {
		return nil, err
	}
	return &talkNet{VGPRSNet: n}, nil
}

// listenerFrames sums the frames every listener has played out.
func (n *talkNet) listenerFrames() (frames, expected uint64) {
	for _, ms := range n.MSs {
		rep := ms.MediaReport()
		frames += rep.Frames
		expected += rep.Expected
	}
	return frames, expected
}

// score rates each call as the worse of its two listener legs and returns
// the per-call MOS with the listeners' mean mouth-to-ear delay.
func (n *talkNet) score() (perCall []float64, mouthToEar time.Duration) {
	scorer := metrics.DefaultEModel()
	var delay time.Duration
	for i := 0; i+1 < len(n.MSs); i += 2 {
		mos := 5.0
		for _, ms := range n.MSs[i : i+2] {
			rep := ms.MediaReport()
			if s := scorer.Score(rep.MeanDelay, rep.Jitter, rep.Expected, rep.Frames); s.MOS < mos {
				mos = s.MOS
			}
			delay += rep.MeanDelay
		}
		perCall = append(perCall, mos)
	}
	return perCall, delay / time.Duration(len(n.MSs))
}

// runTalkSharded holds the calls up and advances the talk window one
// virtual second per op. After the loop it clears every call down, drains,
// and audits: every frame sent was played out, the median call scores toll
// quality, and no transient state is left behind.
func runTalkSharded(l *loop) {
	cfg := l.cfg
	l.population = 2 * cfg.TalkCalls
	var n *talkNet
	if err := l.setup(func() error {
		var err error
		n, err = newTalkNet(cfg, l.res)
		return err
	}); err != nil {
		l.res.Attempted++
		l.res.fail("setup: %v", err)
		return
	}
	snapshot := func() {
		perCall, m2e := n.score()
		l.res.Sim.PerCallMOS = perCall
		l.res.Sim.MouthToEarMs = ms(m2e)
		l.res.Sim.MOSP50 = metrics.SummarizeFloats(perCall).P50
	}
	for !l.done() {
		l.op(func(traced bool) opOut {
			if traced {
				l.tr.attach(n.Env)
			} else {
				n.Env.SetTracer(nil)
			}
			d0 := n.Env.Delivered()
			sp := l.span("sim.RunUntil")
			t0 := time.Now()
			n.Env.RunUntil(n.Env.Now() + time.Second)
			out := opOut{runWall: time.Since(t0), delivered: n.Env.Delivered() - d0}
			l.endSpan(sp)
			frames, _ := n.listenerFrames()
			out.work = float64(frames - n.frames)
			n.frames = frames
			if !allIn(n.MSs, gsm.MSInCall) || out.work == 0 {
				out.err = fmt.Errorf("talk window: calls dropped or no frames played out")
				out.work = 0
			}
			return out
		})
		if l.ops == simPrefixOps {
			snapshot()
		}
	}
	if l.ops < simPrefixOps {
		snapshot()
	}
	n.Env.SetTracer(nil)

	// Clear-down audit, counted as one more attempted op.
	l.res.Attempted++
	frames, expected := n.listenerFrames()
	perCall, m2e := n.score()
	mosP50 := metrics.SummarizeFloats(perCall).P50
	if err := n.clearDown(); err != nil {
		l.res.fail("clear-down: %v", err)
	} else if frames != expected || mosP50 < 4.0 {
		l.res.fail("talk audit: %d frames played of %d expected, MOS p50 %.3f", frames, expected, mosP50)
	} else if r := n.Residual(); r.Total() != 0 {
		l.res.fail("residual after drain: %s", r.String())
	}

	l.res.WorkUnit = "frames"
	l.res.BytesPerSub = heapPerSub(2*cfg.TalkCalls, func() any {
		n, err := newTalkNet(cfg, l.res)
		if err != nil {
			l.res.fail("heap probe: %v", err)
		}
		return n
	})
	l.res.Named = append(l.res.Named,
		named{"frames_per_s", l.res.Work / sum(l.res.OpWall).Seconds(), "1/s"},
		named{"frames", float64(frames), "count"},
		named{"frames_expected", float64(expected), "count"},
		named{"mouth_to_ear_ms", ms(m2e), "ms"},
		named{"mos_p50", mosP50, "MOS"},
	)
}

// clearDown heals the media legs, hangs every call up, waits for the MSs
// to go idle, and drains in-flight work.
func (n *talkNet) clearDown() error {
	if err := netsim.MediaChaosPlan(0, 0, 0, 0).Apply(n.Env); err != nil {
		return err
	}
	for i := 0; i+1 < len(n.MSs); i += 2 {
		if err := n.MSs[i].Hangup(n.Env); err != nil {
			return err
		}
	}
	if !runUntil(n.Env, 30*time.Second, func() bool { return allIn(n.MSs, gsm.MSIdle) }) {
		return fmt.Errorf("calls not cleared after 30 virtual seconds")
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	return nil
}

func allIn(mss []*gsm.MS, st gsm.MSState) bool {
	for _, ms := range mss {
		if ms.State() != st {
			return false
		}
	}
	return true
}

// runUntil advances env in 100 ms steps until done reports true or the
// window elapses, returning done's final verdict.
func runUntil(env *sim.Env, window time.Duration, done func() bool) bool {
	deadline := env.Now() + window
	for !done() {
		if env.Now() >= deadline {
			return false
		}
		env.RunUntil(min(env.Now()+100*time.Millisecond, deadline))
	}
	return true
}
