# Developer entry points. Everything is pure stdlib Go; no tool downloads.

GO ?= go

# Every command binary `make bin` produces under ./bin.
CMDS = abd-sim abd-node abd-cli

.PHONY: all build bin test race vet fmt tcpnet-repeat bench-check check smoke examples e2e-smoke bench bench-pairs eval loc knobs clean

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

# Nothing here ever runs the twins of the build-tagged files that the
# 64-bit Linux build leaves out (core/datasync_linux32.go,
# core/datasync_other.go, tcpnet/rawsys_unix.go, tcpnet/sockio_other.go);
# cross-building at least compiles them, and the arm64 build compiles the
# raw calls on a second 64-bit architecture.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=arm $(GO) build ./...

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

# The transport suite twenty times over: tcpnet does its own socket I/O,
# and a flake there at ~1.5% a run went unnoticed through single runs. ~20 s.
tcpnet-repeat:
	$(GO) test ./internal/tcpnet -count 20

check: build fmt vet test race tcpnet-repeat bench-check

# Tier-2 smoke: one checked run on the simulated network under a chaos
# fault mix (drops, duplicates, corruption, a crash), which exits nonzero on
# a non-linearizable history, its history written out and checked again
# from the file (abd-sim -in); then one seeded nemesis pass on a real TCP
# cluster (chaos faults, crash+restart, linearizability check), its spans
# dumped as JSONL and fed back through abd-cli trace, which exits nonzero
# unless at least 95% of the replica/transport spans stitch to the client
# operation that caused them.
smoke_dir := $(if $(TMPDIR),$(TMPDIR),/tmp)
SMOKE_HISTORY ?= $(smoke_dir)/abd-smoke-history.json
SMOKE_SPANS ?= $(smoke_dir)/abd-smoke-spans.jsonl
smoke:
	$(GO) run ./cmd/abd-sim -seed 7 -check -faults "faults:*:drop=0.2,dup=0.1,corrupt=0.02@0ms; crash:4@20ms; faults:*:none@150ms" -out $(SMOKE_HISTORY)
	$(GO) run ./cmd/abd-sim -in $(SMOKE_HISTORY)
	$(GO) run ./cmd/abd-sim -nemesis -seed 7 -trace-out $(SMOKE_SPANS)
	$(GO) run ./cmd/abd-cli trace -min-stitch 0.95 $(SMOKE_SPANS)

# Runs every program under examples/ end to end and fails on the first
# nonzero exit: `go test ./...` only builds the examples without tests.
# ~5 s.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

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
	$(GO) run ./cmd/abd-sim -exp all -seed 1

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

# The settable surface ROADMAP.md tracks: exported With* options per
# package and option type, the root package's cluster constructors, and the
# flags each binary under cmd/ defines. Quote the output before and after a
# change that adds or removes a setting. Not a gate.
knobs:
	@src=$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print); \
	echo 'With* options (package, type, count):'; \
	grep -H '^func With' $$src | sed -E 's|^\./||; s|[^/]*\.go:func With[A-Za-z0-9]*\([^)]*\) ([A-Za-z.]+).*| \1|; s|^ |. |; s|/ | |' | \
		sort | uniq -c | awk '{ printf "  %-22s %-14s %3d\n", $$2, $$3, $$1 }'; \
	printf 'cluster constructors:'; \
	grep -ho '^func New[A-Za-z]*Cluster(' *.go | sed -E 's/^func (.*)\(/ \1/' | tr -d '\n'; echo; \
	echo 'flags per binary:'; \
	for d in cmd/*/; do \
		printf '  %-22s %3d\n' $$(basename $$d) $$(cat $$(ls $$d*.go | grep -v '_test\.go$$') | \
			grep -cE '\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func)(Var)?\((&[^,]*, *)?"'); \
	done

clean:
	$(GO) clean ./...
