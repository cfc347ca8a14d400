# Tier-1 verification plus the race-enabled suite. `make check` is the
# gate CI runs on every push. `make help` lists every target.

GO ?= go

.PHONY: check build test vet lint race bench bench-smoke bench-json bench-guard sabred-smoke crash-smoke stream-smoke fuzz-smoke clean help

check: vet lint build race

vet:
	$(GO) vet ./...

# Static analysis beyond vet: the sabrelint multichecker (see
# internal/analysis and ARCHITECTURE.md § Static analysis) proves the
# repo's determinism, zero-alloc, and calibration-snapshot invariants
# and folds in staticcheck when the pinned binary is on PATH (CI
# installs honnef.co/go/tools/cmd/staticcheck@2025.1; a bare toolchain
# still lints). `make vet` covers go vet, so sabrelint's own vet stage
# is skipped here. LINT_JSON=file.json additionally writes the
# machine-readable report CI uploads as an artifact.
LINT_JSON ?=
lint:
	$(GO) run ./cmd/sabrelint -novet $(if $(LINT_JSON),-json $(LINT_JSON),) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench BenchmarkBatchCompile -benchtime=2x .

# End-to-end routing smoke: two small workloads through the batch
# engine with a 4-trial fan-out and the verify pass in the job
# pipeline, so any routing-validity error fails the target (exit 1),
# plus one workload through each registry heuristic (anneal,
# tokenswap) under the same verify gate, plus the async job queue
# (submit/poll/webhook/cancel/drain) over the same workloads. The
# final step runs the routing hot-path benchmarks once with allocation
# reporting — the TestScoreRoundZeroAllocs and TestRecordStepZeroAllocs
# guards in the same package fail the suite if a heap allocation
# creeps back into the steady-state SWAP round or the op-log path, and
# the TestTrialBytesPerGate and TestPrepareBytesPerGate byte guards
# fail it if a trial or Prepare starts copying the circuit again.
bench-smoke:
	$(GO) run ./cmd/benchtab -batch -names 4mod5-v1_22,qft_10 -trials 4 -passes verify -rounds 1 -workers 2
	$(GO) run ./cmd/benchtab -batch -names 4mod5-v1_22 -route anneal -trials 2 -passes verify -rounds 1 -workers 2
	$(GO) run ./cmd/benchtab -batch -names 4mod5-v1_22 -route tokenswap -trials 4 -passes verify -rounds 1 -workers 2
	$(GO) run ./cmd/benchtab -async -names 4mod5-v1_22,qft_10 -passes verify -workers 2
	$(GO) test ./internal/core -run 'TestScoreRoundZeroAllocs|TestRecordStepZeroAllocs|TestTrialBytesPerGate|TestPrepareBytesPerGate' -count=1 -v \
		-bench 'BenchmarkScoreRound|BenchmarkRoutePass/qft_20' -benchtime=1x -benchmem

# Perf-trajectory snapshot: workload × router ns/op, allocs/op and
# added gates, plus the score_round microbenchmark rows (one per
# scoring engine) and the stream_throughput streaming rows (gates/sec
# and bytes/gate for the windowed path and its materialized oracle),
# written as JSON so future PRs have a baseline to beat. Compare
# against the committed BENCH_PR10.json.
bench-json:
	$(GO) run ./cmd/benchtab -json BENCH_PR10.json

# CI perf-regression gate: re-measure the committed baseline and fail
# on ns/op regression (>25% on baseline routers, >15% on the strict
# sabre/score_round rows), any allocs/op growth on the strict rows, or
# added-gates drift. BENCH_GUARD_NAMES bounds the wall-clock (empty =
# every baseline row, ~1 min + the two large workloads); CI restricts
# it to the fast rows so the gate stays snappy and scheduler noise on
# the big circuits doesn't flake it.
BENCH_GUARD_NAMES ?=
bench-guard:
	$(GO) run ./cmd/benchtab -compare BENCH_PR10.json -tolerance 25 -sabre-tolerance 15 -names '$(BENCH_GUARD_NAMES)'

# End-to-end daemon smoke: build sabred, boot it, submit an async job,
# long-poll to completion, assert the verify pass succeeded and the
# output is byte-identical to POST /compile, receive the webhook,
# cancel a heavy job, and SIGTERM into a clean graceful drain.
# SMOKE_RACE=1 builds the daemon with the race detector (CI does).
sabred-smoke:
	$(GO) run ./cmd/sabredsmoke $(if $(SMOKE_RACE),-race,)

# Crash-recovery drill: boot sabred on a durable job log, SIGKILL it
# with one job running and two queued, restart it on the same log
# directory, and require every job to replay under its original ID
# with byte-identical results — then absorb a scripted router panic
# without losing the daemon. Always race-built: the kill/replay path
# is exactly where a data race would hide.
crash-smoke:
	$(GO) run ./cmd/sabredsmoke -race -crash

# Streaming-compilation smoke: stream a million-gate QASM trace
# through POST /compile?stream=1 (bounded memory end to end), assert
# the trailer accounting and run-to-run byte determinism, hold the
# windowed arm byte-identical to the materialized oracle, and deliver
# the same compilation as a /jobs?stream=1 per-chunk webhook job.
# STREAM_FIXTURE=path reuses a pre-generated trace (CI caches
# `genbench -stream-gates 1000000 -stream-only` output); empty
# generates one on the fly (~1s). SMOKE_RACE=1 race-builds the daemon.
stream-smoke:
	$(GO) run ./cmd/sabredsmoke $(if $(SMOKE_RACE),-race,) -stream $(if $(STREAM_FIXTURE),-stream-fixture $(STREAM_FIXTURE),)

# Fuzz smoke: FuzzParseScan mutates QASM inputs for a fixed budget and
# fails on any input where Parse and GateScanner disagree, a parsed
# circuit does not survive Format∘Parse, or either panics; then
# FuzzProgramJSON fails on any parsed program whose JSON-escaped text
# (the sabred response encoder) differs from json.Marshal(Format(c));
# then FuzzRouteOracles fails on any small circuit where the bitset
# scorer and the exhaustive reference route differently, the windowed
# stream and its materialized oracle emit differently, or a routed
# circuit is not hardware compliant. Crashers land in
# internal/<pkg>/testdata/fuzz/<target>; commit them as regression
# inputs. A routing input costs milliseconds, so the default 60 s spent
# minimizing each new corpus entry would stall FuzzRouteOracles' whole
# budget; it minimizes for 1 s.
fuzz-smoke:
	$(GO) test ./internal/qasm -run '^$$' -fuzz '^FuzzParseScan$$' -fuzztime 20s
	$(GO) test ./internal/qasm -run '^$$' -fuzz '^FuzzProgramJSON$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRouteOracles$$' -fuzztime 10s -fuzzminimizetime 1s

clean:
	$(GO) clean ./...

help:
	@echo "check        tier-1 gate CI runs per push: vet + lint + build + race"
	@echo "vet          go vet ./..."
	@echo "lint         sabrelint multichecker: determinism / zero-alloc / snapshot"
	@echo "             invariant analyzers + staticcheck (LINT_JSON=f writes a report)"
	@echo "build        go build ./..."
	@echo "test         go test ./..."
	@echo "race         go test -race ./..."
	@echo "bench        batch-compile benchmark, 2 rounds"
	@echo "bench-smoke  end-to-end routing smoke incl. the zero-alloc guard"
	@echo "bench-json   write the perf baseline (BENCH_PR10.json)"
	@echo "bench-guard  fail on perf regression vs the committed baseline"
	@echo "sabred-smoke daemon end-to-end smoke (SMOKE_RACE=1 for -race)"
	@echo "crash-smoke  SIGKILL + durable-log replay drill (always race-built)"
	@echo "stream-smoke million-gate chunked /compile + webhook-chunk job smoke"
	@echo "             (STREAM_FIXTURE=f reuses a cached trace, SMOKE_RACE=1 for -race)"
	@echo "fuzz-smoke   FuzzParseScan for 20s (Parse vs GateScanner), then"
	@echo "             FuzzProgramJSON for 10s (AppendJSON vs encoding/json), then"
	@echo "             FuzzRouteOracles for 10s (bitset vs exhaustive, windowed vs"
	@echo "             materialized stream, hardware compliance)"
	@echo "clean        go clean ./..."
