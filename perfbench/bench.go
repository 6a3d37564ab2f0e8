package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// config is one run's settings. The command line sets Workload, Seed,
// Seconds and Trace; the sizes default to the values README.md documents and are only
// shrunk by the benchmark's own tests.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// SpanFile is where a traced run writes its spans ("" = keep them in
	// memory only).
	SpanFile string

	// SetupRepeats is how many times the workload sets up per run;
	// setup_s is the median.
	SetupRepeats int
	// MaxOps stops the timed loop after this many ops (0 = run for
	// Seconds). Tests use it to compare runs op for op.
	MaxOps int

	SmallMS int // register-small: MSs per network

	ResidentSubs  int // resident-full: population
	ResidentCalls int // resident-full: MS-to-MS call setups at full residency
	ResidentWave  int // resident-full: procedures per op

	TalkCalls  int // talk-sharded: concurrent MS-to-MS calls
	TalkShards int // talk-sharded: event-engine shards

	// dropAccepts makes the resident-full driver ignore that many
	// LocationUpdateAccepts: the injected failure the tests use to show
	// that a failed output check reaches the failed count.
	dropAccepts int
}

const (
	wlRegisterSmall = "register-small"
	wlResidentFull  = "resident-full"
	wlTalkSharded   = "talk-sharded"
)

func defaultConfig(workload string) (config, error) {
	cfg := config{
		Workload:      workload,
		Seconds:       10,
		SetupRepeats:  11,
		SmallMS:       50,
		ResidentSubs:  20_000,
		ResidentCalls: 10_000,
		ResidentWave:  2_000,
		TalkCalls:     16,
		TalkShards:    2,
	}
	switch workload {
	case wlRegisterSmall, wlResidentFull, wlTalkSharded:
		return cfg, nil
	}
	return cfg, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
		workload, wlRegisterSmall, wlResidentFull, wlTalkSharded)
}

// named is a workload-specific quantity printed in the report with its
// unit: the per-workload quantities that are not end-to-end metrics of
// every workload (see README.md).
type named struct {
	Name  string
	Value float64
	Unit  string
}

// simStats are simulated statistics: they depend only on the seed and the
// workload sizes, never on the host, and must repeat exactly.
type simStats struct {
	// DeliveredFirst is the number of messages the engine delivered in
	// the first simPrefixOps ops.
	DeliveredFirst uint64 `json:"delivered_first_ops"`
	PrefixOps      int    `json:"prefix_ops"`
	// VirtSetupMs is the median virtual MS-to-MS call setup time
	// (resident-full).
	VirtSetupMs float64 `json:"virt_setup_ms,omitempty"`
	// MouthToEarMs and MOSP50 summarise the listeners after the first
	// simPrefixOps virtual seconds (talk-sharded).
	MouthToEarMs float64   `json:"mouth_to_ear_ms,omitempty"`
	MOSP50       float64   `json:"mos_p50,omitempty"`
	PerCallMOS   []float64 `json:"per_call_mos,omitempty"`
}

// simPrefixOps is how many leading ops the simulated statistics cover, so
// they repeat exactly whatever number of ops the wall-clock budget allows.
const simPrefixOps = 10

// result is what one run measured.
type result struct {
	Machine   machine
	Attempted int
	Failed    int
	Failures  []string // the first few failed checks, for the report

	Setups []time.Duration

	// Untraced ops: wall time each, and the work they completed.
	OpWall   []time.Duration
	Work     float64
	WorkUnit string
	// RunWall and Delivered sum the engine's run time and deliveries over
	// the untraced ops.
	RunWall   time.Duration
	Delivered uint64
	// BuildWall and Builds time netsim.BuildVGPRS wherever it is called.
	BuildWall time.Duration
	Builds    int

	// Heap is HeapInuse sampled at every op boundary, in bytes.
	Heap        []int64
	BytesPerSub float64
	Named       []named
	Sim         simStats

	Layers *tracing // traced runs only
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func run(cfg config) (*result, error) {
	// Parallelism never exceeds the CPUs this process may use: the only
	// goroutines beyond main are the event engine's shard workers.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	res := &result{Machine: thisMachine()}
	l := newLoop(&cfg, res)
	switch cfg.Workload {
	case wlRegisterSmall:
		runRegisterSmall(l)
	case wlResidentFull:
		runResidentFull(l)
	case wlTalkSharded:
		runTalkSharded(l)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", cfg.Workload)
	}
	if l.tr != nil {
		l.tr.finish(&cfg, l, res)
		res.Layers = l.tr
		if cfg.SpanFile != "" {
			if err := l.tr.spans.write(cfg.SpanFile); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// loop drives a workload's timed ops: it times each and samples the heap at
// op boundaries. A traced run times an untraced half and a traced half
// (see done); the difference of their mean op walls is the tracing
// overhead.
type loop struct {
	cfg   *config
	res   *result
	tr    *tracing // nil in an untraced run
	start time.Time
	ops   int
	// phaseOps counts the ops of the current half of a traced run.
	phaseOps int
	// population is the number of subscribers the workload holds, the
	// size the slab timings run at.
	population int

	traced   bool // the traced half of a traced run is under way
	rt0      rtSample
	rtTotals rtSample // runtime deltas summed over untraced ops
	rtOps    int
	heapS    []metrics.Sample
}

func newLoop(cfg *config, res *result) *loop {
	l := &loop{cfg: cfg, res: res, heapS: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	if cfg.Trace {
		l.tr = newTracing()
	}
	return l
}

// setup runs fn SetupRepeats times and records each duration; the workload
// keeps the state of the last call.
func (l *loop) setup(fn func() error) error {
	for i := 0; i < l.cfg.SetupRepeats; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		l.res.Setups = append(l.res.Setups, time.Since(t0))
	}
	// Collect the discarded set-ups' garbage so every run's timed loop
	// starts from the same heap and GC pacing state.
	runtime.GC()
	l.start = time.Now()
	return nil
}

// done reports whether the timed loop's budget is spent. A traced run
// splits the budget: its first half runs untraced, then, after a forced
// GC, its second half runs traced, so the runtime's allocation and GC
// counts are not charged for the tracer's garbage.
func (l *loop) done() bool {
	budget := l.cfg.Seconds
	if l.tr != nil {
		budget /= 2
	}
	spent := time.Since(l.start).Seconds() >= budget
	if l.cfg.MaxOps > 0 {
		spent = l.phaseOps >= l.cfg.MaxOps
	}
	if spent && l.tr != nil && !l.traced {
		l.traced = true
		l.phaseOps = 0
		runtime.GC()
		l.start = time.Now()
		return false
	}
	return spent
}

// opOut is what one op reports back to the loop.
type opOut struct {
	work      float64       // completed units of work
	runWall   time.Duration // engine Run/RunUntil wall time within the op
	delivered uint64        // messages the engine delivered within the op
	err       error         // failed output check
}

// op runs one timed op. fn receives whether this op is traced; a traced op
// must route the engine's Tracer and node wrappers to l.tr.
func (l *loop) op(fn func(traced bool) opOut) {
	if l.tr != nil && !l.traced {
		l.rt0 = readRT()
	}
	var root int32
	if l.traced {
		l.tr.on = true
		root = l.tr.spans.begin("op", -1)
	}
	t0 := time.Now()
	out := fn(l.traced)
	wall := time.Since(t0)
	if l.traced {
		l.tr.spans.end(root)
		l.tr.on = false
		l.tr.ops++
		l.tr.opWall += wall
		l.tr.runWall += out.runWall
		l.tr.engineDelivered += out.delivered
	} else {
		if l.tr != nil {
			l.rtTotals.add(readRT().sub(l.rt0))
			l.rtOps++
		}
		l.res.OpWall = append(l.res.OpWall, wall)
		l.res.Work += out.work
		l.res.RunWall += out.runWall
		l.res.Delivered += out.delivered
	}
	if l.ops < simPrefixOps {
		l.res.Sim.DeliveredFirst += out.delivered
		l.res.Sim.PrefixOps++
	}
	l.ops++
	l.phaseOps++
	l.res.Attempted++
	if out.err != nil {
		l.res.fail("op %d: %v", l.ops-1, out.err)
	}
	l.sampleHeap()
}

func (l *loop) sampleHeap() {
	metrics.Read(l.heapS)
	var inuse uint64
	for _, s := range l.heapS {
		if s.Value.Kind() == metrics.KindUint64 {
			inuse += s.Value.Uint64()
		}
	}
	l.res.Heap = append(l.res.Heap, int64(inuse))
}

// span opens a child span of the current op in a traced op; it returns -1
// (and records nothing) otherwise.
func (l *loop) span(name string) int32 {
	if !l.traced {
		return -1
	}
	return l.tr.spans.begin(name, l.tr.spans.open)
}

func (l *loop) endSpan(id int32) {
	if id >= 0 {
		l.tr.spans.end(id)
	}
}

// rtSample is a snapshot of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes, mallocs, gcCycles, pauseNs uint64
	gcCPU, totalCPU                        float64
}

var rtCPU = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtCPU)
	s := rtSample{
		allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs,
	}
	if rtCPU[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtCPU[0].Value.Float64()
		s.totalCPU = rtCPU[1].Value.Float64()
	}
	return s
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes: a.allocBytes - b.allocBytes, mallocs: a.mallocs - b.mallocs,
		gcCycles: a.gcCycles - b.gcCycles, pauseNs: a.pauseNs - b.pauseNs,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

func (a *rtSample) add(b rtSample) {
	a.allocBytes += b.allocBytes
	a.mallocs += b.mallocs
	a.gcCycles += b.gcCycles
	a.pauseNs += b.pauseNs
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// heapPerSub is the GC'd heap delta of keeping what build returns, divided
// by the subscribers it holds: the DESIGN.md §8 method at a small size.
// It takes the median of three probes.
func heapPerSub(subs int, build func() any) float64 {
	var probes []float64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		probes = append(probes, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)))
	}
	return median(probes) / float64(subs)
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks.
func quantile[T ~int64](ds []T, q float64) T {
	if len(ds) == 0 {
		return 0
	}
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + T(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
