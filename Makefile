# Developer entry points. Everything is pure stdlib Go; no tool downloads.

GO ?= go

# Every command binary `make bin` produces under ./bin.
CMDS = abd-sim abd-node abd-cli abd-check abd-bench abd-trace abd-top

.PHONY: all build bin test race vet fmt bench-check check smoke e2e-smoke bench bench-pairs eval loc clean

all: check

build:
	$(GO) build ./...

bin:
	$(GO) build -o bin/ $(addprefix ./cmd/,$(CMDS))

test:
	$(GO) test ./...

# The instrumentation layer (obs histograms/tracers, client/replica counters,
# netsim stats epochs) is lock-free or lock-cheap by design; keep it honest
# under the race detector. These are the packages with real concurrency.
race:
	$(GO) test -race . ./examples/... ./internal/obs/... ./internal/core/... ./internal/netsim/... ./internal/tcpnet/... ./internal/chaos/... ./internal/nemesis/... ./internal/wire/... ./internal/shard/... ./internal/health/... ./internal/experiments/... ./internal/quorum/... ./internal/failure/... ./internal/prof/... ./internal/baseline/... ./internal/reconfig/...

# Nothing here ever runs the non-Linux twins of the two build-tagged files
# (core/datasync_other.go, tcpnet/trywrite_other.go); cross-building at
# least compiles them.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

# Fails, naming them, if any file is not gofmt-clean (bench/ included: it is
# a module of its own, but the same tree).
fmt:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The repository benchmark is a module of its own, so `go build ./...` and
# `go test ./...` never compile it. Vet and test it here, so that a change to
# an API it reads (tcpnet.Stats, core.MetricsSnapshot, the /metrics series)
# fails in check instead of first inside a benchmark run. ~5 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build fmt vet test race bench-check

# Tier-2 smoke: one checked run on the simulated network under a chaos
# fault mix (drops, duplicates, corruption, a crash), which exits nonzero on
# a non-linearizable history; then one seeded nemesis pass on a real TCP
# cluster (chaos faults, crash+restart, linearizability check), its spans
# dumped as JSONL and fed back through abd-trace, which exits nonzero unless
# at least 95% of the replica/transport spans stitch to the client operation
# that caused them.
SMOKE_SPANS ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/abd-smoke-spans.jsonl
smoke:
	$(GO) run ./cmd/abd-sim -seed 7 -check -faults "faults:*:drop=0.2,dup=0.1,corrupt=0.02@0ms; crash:4@20ms; faults:*:none@150ms"
	$(GO) run ./cmd/abd-sim -nemesis -seed 7 -trace-out $(SMOKE_SPANS)
	$(GO) run ./cmd/abd-trace -min-stitch 0.95 $(SMOKE_SPANS)

# Tier-2 end-to-end smoke: the repository benchmark's own unit tests, then
# its smoke run — real abd-node processes with a WAL, driven over tcpnet at
# an open-loop rate on all four workloads (crash-mixed SIGKILLs and restarts
# a replica), each checked for 0 failed operations and a linearizable audit
# history. ~1 min; the numbers it prints are NOT comparable with anything.
e2e-smoke:
	cd bench && $(GO) test ./...
	$(GO) run -C bench . -quick

bench:
	$(GO) test -bench=. -benchmem ./...

# Paired runs of the repository benchmark, PARENT vs this checkout, one
# pair per seed with alternating order; appends every run's JSON line to
# BENCH_PAIRS_OUT and prints median, IQR and k-of-n per end-to-end metric.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=read-heavy SEEDS="31 32 33"
BENCH_PAIRS_OUT ?= bench-pairs.jsonl
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" -a -n "$(SEEDS)" || { echo 'usage: make bench-pairs PARENT=<rev> WORKLOAD=<workload> SEEDS="..."'; exit 2; }
	sh scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEEDS)" "$(BENCH_PAIRS_OUT)"

# Regenerate every evaluation table (EXPERIMENTS.md appendix).
eval:
	$(GO) run ./cmd/abd-bench -exp all -seed 1

# The line counts ROADMAP.md tracks: non-test Go lines of the protocol
# core, of the telemetry packages and of the module outside bench/, plus the
# module's test lines. Quote the output before and after a change.
loc:
	@src() { find "$$@" -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l; }; \
	printf '%-28s %6d\n' \
		'internal/core' $$(src internal/core) \
		'obs + health + prof' $$(src internal/obs internal/health internal/prof) \
		'module outside bench/' $$(src .) \
		'test lines outside bench/' $$(find . -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l)

clean:
	$(GO) clean ./...
