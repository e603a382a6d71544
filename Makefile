# Tier-1 gate: formatting, vet, build, race-enabled tests, shuffled
# tests, and a short parser fuzz smoke. CI and pre-commit both run
# `make ci`.

GO ?= go

.PHONY: ci fmt vet build test bench bench-smoke bench-record bench-check race alloc-pin shuffle fuzz-smoke load-smoke churn-smoke serve-smoke store-smoke cand-prop store-prop

ci: fmt vet build race alloc-pin cand-prop store-prop fuzz-smoke serve-smoke store-smoke bench-check

# gofmt enforcement: fail (listing the offenders) when any tracked Go
# file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detection and order-independence in one suite run: -shuffle=on
# randomizes test and subtest order so hidden inter-test state can't
# go stale undetected, without paying for a second full execution.
race:
	$(GO) test -race -shuffle=on ./...

# Allocation pins, run without the race detector: under it sync.Pool
# drops pooled scratch at random, so the pins skip themselves there.
alloc-pin:
	$(GO) test -count=1 -run 'TestSearchKernelZeroAlloc' ./internal/matching

# The shuffled suite without the race detector (faster local loop).
shuffle:
	$(GO) test -shuffle=on ./...

# Candidate-pruning parity anchor: a service with WithCandidateIndex
# must return answer sets bit-identical to one without, for every
# registry matcher family and threshold — including across live
# snapshot churn — and Apply-maintained indexes must equal from-scratch
# builds. Race-enabled and shuffled so the concurrent paths run in both
# orders, and gated even if the full suite run above is ever narrowed.
cand-prop:
	$(GO) test -race -shuffle=on \
		-run 'TestCandidateParityProperty|TestCandidateParityUnderChurn|TestFilteredProblemParity|TestApplyMatchesScratch' \
		./match ./internal/matching ./internal/candindex

# Crash-safety anchor: the writer is killed at a random byte offset on
# every round, the store is reopened, and recovery must be bit-identical
# to the last committed state — run race-enabled and shuffled like the
# other property anchors, so it stays gated even if the suite run above
# is ever narrowed.
store-prop:
	$(GO) test -race -shuffle=on -run 'TestCrashRecoveryProperty' ./internal/store

# Short native-fuzzing smoke on the registry parser, the durable store
# loader, the similarity kernels and the search kernel (every matcher
# family against a brute-force oracle): five seconds each is enough to
# catch grammar, framing and search regressions (the full corpus lives
# in the fuzz cache of whoever runs longer sessions).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec' -fuzztime 5s ./match
	$(GO) test -run '^$$' -fuzz 'FuzzLoadTenant' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzKernelParity' -fuzztime 5s ./internal/similarity
	$(GO) test -run '^$$' -fuzz 'FuzzSearchKernel' -fuzztime 5s ./internal/matchers

# Serving-layer smoke: the multi-tenant load driver on a tiny corpus,
# including the batched-vs-sequential throughput comparison.
load-smoke:
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -queue 64 -compare

# Live-update smoke under the race detector: schema churn interleaved
# with query traffic must complete with zero failed in-flight requests
# (the driver errors out otherwise) and no data races.
churn-smoke:
	$(GO) run -race ./cmd/matchload -tenants 2 -personals 2 -schemas 10 \
		-requests 40 -rate 150 -queue 64 -churn-rate 25

# Network-serving smoke: generate a corpus with schemagen, start
# matchd on a random port with tracing at 100% sampling, drive it over
# the wire with matchload -remote -trace (same seed and fleet shape,
# so tenant names and personals agree; the replay scrapes /metrics,
# validates every inline span trace against the request wall, and
# scrapes /debug/traces requiring well-formed span trees), then
# SIGTERM and require a clean drain — matchd exits non-zero if any
# admitted request was abandoned.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	cleanup() { [ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	$(GO) run ./cmd/schemagen -out "$$tmp/corpus" -tenants 2 -personals 2 -schemas 12 -seed 1 >/dev/null; \
	$(GO) build -o "$$tmp/matchd" ./cmd/matchd; \
	"$$tmp/matchd" -corpus "$$tmp/corpus" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" \
		-admin-token smoke-admin -trace-sample 1 -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr" ] || { echo "serve-smoke: matchd never wrote its address file"; exit 1; }; \
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -queue 64 -seed 1 -remote "$$(cat $$tmp/addr)" \
		-trace -remote-admin-token smoke-admin -quiet; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	echo "serve-smoke: clean drain"

# Durable-store smoke, the full power-cycle: generate a corpus, boot
# matchd with -store-dir, churn every tenant over the wire (full-
# repository PUTs via matchload's remote churner), SIGTERM into the
# shutdown compaction, archive the store, reboot matchd from the store
# alone (no corpus), SIGTERM again, archive again — the two dumps must
# be bit-identical (the dump format is deterministic and carries no
# timestamps), and the dump must verify against the live store.
store-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	cleanup() { [ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	$(GO) run ./cmd/schemagen -out "$$tmp/corpus" -tenants 2 -personals 2 -schemas 12 -seed 1 >/dev/null; \
	$(GO) build -o "$$tmp/matchd" ./cmd/matchd; \
	$(GO) build -o "$$tmp/matcharchive" ./cmd/matcharchive; \
	"$$tmp/matchd" -corpus "$$tmp/corpus" -store-dir "$$tmp/store" -admin-token smoke-admin \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr1" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr1" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr1" ] || { echo "store-smoke: matchd never wrote its address file"; exit 1; }; \
	$(GO) run ./cmd/matchload -tenants 2 -personals 2 -schemas 12 \
		-requests 40 -rate 150 -queue 64 -seed 1 -churn-rate 25 \
		-remote "$$(cat $$tmp/addr1)" -remote-admin-token smoke-admin -quiet; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump1"; \
	"$$tmp/matcharchive" verify -i "$$tmp/dump1" -store "$$tmp/store" >/dev/null; \
	"$$tmp/matchd" -store-dir "$$tmp/store" \
		-addr 127.0.0.1:0 -addr-file "$$tmp/addr2" -quiet & pid=$$!; \
	i=0; while [ ! -s "$$tmp/addr2" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/addr2" ] || { echo "store-smoke: matchd never recovered from the store"; exit 1; }; \
	kill -TERM "$$pid"; wait "$$pid"; pid=""; \
	"$$tmp/matcharchive" archive -store "$$tmp/store" -o "$$tmp/dump2"; \
	cmp "$$tmp/dump1" "$$tmp/dump2"; \
	echo "store-smoke: durable state bit-identical across the power cycle"

# Engine memoization benchmarks (memoized vs uncached scoring).
bench:
	$(GO) test -bench 'BenchmarkEngine' -benchmem .

# Perf-harness smoke: run every engine, figure and matcher benchmark —
# plus the incremental-vs-rebuild index maintenance benchmark — for a
# single iteration so harness rot (broken fixtures, diverged answer
# sets) is caught by the gate without paying full benchmark time.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkEngine|BenchmarkFig|BenchmarkMatcher|BenchmarkIndexIncrementalVsRebuild|BenchmarkCandidateIndex|BenchmarkKernel' \
		-benchtime 1x -benchmem .

# Record the perf trajectory: run the benchmark suite plus a short
# matchload replay and write the parsed results to the next free
# BENCH_<n>.json (see cmd/benchrecord).
bench-record:
	$(GO) run ./cmd/benchrecord

# Perf regression gate: compare the two most recent BENCH_<n>.json and
# fail on >50% ns/op regressions. Passes trivially with fewer than two
# recordings, so `ci` stays green on fresh checkouts.
bench-check:
	$(GO) run ./cmd/benchrecord -check
