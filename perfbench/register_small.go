package main

import (
	"time"

	"vgprs/internal/netsim"
)

// runRegisterSmall repeatedly builds a fresh Fig 2(b) network of SmallMS
// MSs and one H.323 terminal on one shard and registers everything. One op
// is one build plus its registrations; its check is RegisterAll's: every MS
// idle and every terminal registered.
func runRegisterSmall(l *loop) {
	cfg := l.cfg
	l.population = cfg.SmallMS
	opts := func(i int) netsim.VGPRSOptions {
		return netsim.VGPRSOptions{
			Seed: cfg.Seed*1_000_003 + int64(i), NumMS: cfg.SmallMS, NumTerminals: 1,
			NoTrace: true, Shards: 1,
		}
	}
	// Set-up is the warm-up op the first timed op would otherwise pay for.
	if err := l.setup(func() error { return netsim.BuildVGPRS(opts(-1)).RegisterAll() }); err != nil {
		l.res.Attempted++
		l.res.fail("setup: %v", err)
		return
	}
	for !l.done() {
		i := l.ops
		l.op(func(traced bool) opOut {
			sp := l.span("netsim.BuildVGPRS")
			t0 := time.Now()
			n := netsim.BuildVGPRS(opts(i))
			l.res.BuildWall += time.Since(t0)
			l.res.Builds++
			l.endSpan(sp)
			if traced {
				l.tr.attach(n.Env)
			}
			sp = l.span("netsim.RegisterAll")
			t0 = time.Now()
			err := n.RegisterAll()
			out := opOut{runWall: time.Since(t0), delivered: n.Env.Delivered(), err: err}
			l.endSpan(sp)
			if err == nil {
				out.work = float64(len(n.MSs))
			}
			return out
		})
	}

	l.res.WorkUnit = "registrations"
	l.res.BytesPerSub = heapPerSub(cfg.SmallMS, func() any {
		n := netsim.BuildVGPRS(opts(-2))
		if err := n.RegisterAll(); err != nil {
			l.res.fail("heap probe: %v", err)
		}
		return n
	})
	wall := sum(l.res.OpWall).Seconds()
	l.res.Named = append(l.res.Named,
		named{"register_per_s", l.res.Work / wall, "1/s"},
	)
}
