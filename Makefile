# Development entry points. `make check` is the tier-1 gate plus the race
# detector over the packages that now run work on goroutines (the parallel
# sweep runner); CI should run exactly this target.

GO ?= go

# Packages with a wire-format FuzzDecode target and a committed seed corpus
# under testdata/fuzz/.
FUZZ_PKGS = ./internal/sigmap/ ./internal/gtp/ ./internal/q931/ ./internal/gb/ ./internal/isup/ ./internal/rtp/ ./internal/gsm/ ./internal/h323/

.PHONY: all build vet test race check bench bench-sim bench-codec bench-registration bench-engine bench-scenarios bench-scale bench-media bench-json fuzz-smoke fuzz soak soak-short

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sweep runner fans experiment points across worker goroutines (and
# drives the netsim chaos scenarios from them); keep the race detector on
# the packages that schedule or execute that work.
race:
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/netsim/...

check: vet build test race

# Short coverage-guided fuzz pass over every wire decoder and the slab
# allocator (FuzzSlab: handle generations, pointer stability and audits
# against a map model), seeded from the committed corpora. CI runs this; it
# is a smoke test for panics and broken invariants, not a soak.
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test $$pkg -fuzz=FuzzDecode -fuzztime=10s || exit 1; \
	done
	$(GO) test ./internal/slab/ -fuzz=FuzzSlab -fuzztime=10s

# Longer local fuzzing session per decoder and for the slab allocator.
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test $$pkg -fuzz=FuzzDecode -fuzztime=5m || exit 1; \
	done
	$(GO) test ./internal/slab/ -fuzz=FuzzSlab -fuzztime=5m

# Full benchmark suite (paper artifacts + engine micro-benchmarks).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Engine hot-path micro-benchmarks only: must report 0 allocs/op for
# BenchmarkSendDeliver and BenchmarkTimerChurn.
bench-sim:
	$(GO) test -run '^$$' -bench 'SendDeliver|TimerChurn' -benchmem ./internal/sim/

# Per-codec allocation benchmarks on the pooled zero-copy path. The alloc
# ceilings themselves are enforced by TestAllocCeilings in each package.
bench-codec:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/wire/ ./internal/sigmap/ ./internal/gtp/ ./internal/q931/ ./internal/gsm/

# Full-stack registration throughput (ns/op, B/op, allocs/op), written to
# BENCH_registration.json in the working dir for per-run tracking.
bench-registration:
	$(GO) run ./cmd/vgprs-bench -only registration -json

# Sharded event-engine scaling sweep (multi-region registration at shard
# counts 1/2/4/8), written to BENCH_engine.json in the working dir. The
# point records GOMAXPROCS/NumCPU: on a single-core host the sweep measures
# synchronization overhead, not speedup.
bench-engine:
	$(GO) run ./cmd/vgprs-bench -only engine -json

# Scenario workload sweep (mobility churn, flash crowd, day-in-the-life),
# written to BENCH_scenarios.json in the working dir.
bench-scenarios:
	$(GO) run ./cmd/vgprs-bench -only scenarios -json

# Media-plane sweep (concurrent calls x per-link loss rate, per-call
# E-model MOS distributions), written to BENCH_media.json in the working
# dir.
bench-media:
	$(GO) run ./cmd/vgprs-bench -only media -json

# Scale sweep, written to BENCH_scale.json in the working dir: each
# population attached first to the slab-backed core alone (bytes/subscriber,
# attach, call-setup and churn throughput at full residency), then through
# the complete Fig 2(b) topology (VMSC, VLR, HLR, SGSN, GGSN, gatekeeper,
# directory) with end-to-end call setup; both end with the cancel-all
# recycle audit. CI runs the 100k point, as does the committed artifact;
# the 500k and 1M points need several GB (make bench-scale
# SCALE_SUBS=100000,500000,1000000).
SCALE_SUBS ?= 100000
bench-scale:
	$(GO) run ./cmd/vgprs-bench -only scale -scale-subs $(SCALE_SUBS) -json

# Machine-readable experiment results (BENCH_<id>.json in the working dir).
bench-json:
	$(GO) run ./cmd/vgprs-bench -json

# Full day-in-the-life soak (4 simulated hours) with the leak gate.
soak:
	$(GO) test ./internal/netsim/scenario/ -run TestDaySoak -v

# Reduced soak for CI: same invariants, shorter simulated day, race
# detector on.
soak-short:
	$(GO) test -race -short ./internal/netsim/scenario/ -v
