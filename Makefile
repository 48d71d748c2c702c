GO ?= go

.PHONY: all build test vet race bench bench-smoke bench-test wire-fuzz chaos crash serve-smoke obs-smoke quant-smoke failover-smoke durability-smoke fmt-check loc ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench BenchmarkTelemetryOverhead -benchmem -run '^$$' ./internal/telemetry/

# One racy iteration of every kernel benchmark (the n=1024 grid points are
# skipped: a single 1024³ product under -race takes minutes, not seconds).
bench-smoke:
	$(GO) test -race -benchtime 1x -benchmem -run '^$$' \
		-bench 'BenchmarkTensorMatMul256|BenchmarkTensorMatMulGrid/n=(64|256)|BenchmarkNNTrainBatch' .

# The repository benchmark's own tests (bench/ is a module of its own, so
# `go test ./...` at the root does not reach it): unit tests plus a 1/50-size
# pass of every workload, < 5 s. bench/ calls wire.NewCodec/Send/Recv and
# pipestore.ExtractRuns through a frozen surface; a signature change that
# breaks it fails here instead of in the benchmark driver.
bench-test:
	cd bench && $(GO) test ./...

# Ten seconds of coverage-guided fuzzing of the wire decoder, from one valid
# frame per message type: never a panic, never an untyped error, never a
# message bigger than the bytes that carried it.
wire-fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire/

# Deterministic chaos suite: seeded fault injection, quorum rounds, store
# eviction/rejoin, and the kill/restart soak — all under the race detector.
chaos:
	$(GO) test -race -v -run 'TestQuorum|TestEvicted|TestRoundTimeout|TestStaleEpoch|TestChaosSoak' ./internal/tuner/
	$(GO) test -race -run 'TestServeAnswersPing|TestDialRetry' ./internal/pipestore/
	$(GO) test -race ./internal/faultinject/

# Crash-injection suite: WAL torn at every byte offset, seeded disk faults
# (short writes, crash-before/after-rename), tuner and store kill/restart
# recovery, compaction crash points — all under the race detector.
crash:
	$(GO) test -race ./internal/durable/
	$(GO) test -race -v -run 'TestCrash' ./internal/tuner/ ./internal/pipestore/

# Serving-gateway smoke: closed-loop load through the gateway with shed and
# tenant-throttle rejections in play, checking request conservation (every
# outcome client-visible AND counted in /metrics) plus the concurrent
# upload/delta hammer and bitwise batched-vs-sequential identity — all under
# the race detector.
serve-smoke:
	$(GO) test -race -v -run 'TestServeSmoke|TestServeHammer|TestServeBitwiseAcrossParallelism|TestServeMemoVersionGate' ./internal/serve/

# Observability smoke: a real tuner + store fleet over loopback, scraped
# through the daemon HTTP surface — /fleet exact shipped rollups, the
# straggler gauge after an injected slow store, /healthz, /readyz and
# /flightrec — plus the fleet merge/dedup suite, flight-dump crash paths
# (panic and SIGQUIT) and the metrics lint, all under the race detector.
obs-smoke:
	$(GO) test -race -v -run 'TestObsSmoke' ./internal/tuner/
	$(GO) test -race ./internal/telemetry/ ./internal/flightdump/

# Quantized-path smoke: int8 kernel correctness and determinism across
# worker counts, the quantized-replica determinism and accuracy-agreement
# tests, the compressed-delta codec (error feedback, hostile inputs, the
# ≥4x byte-reduction gate) and the mixed-encoding fleet round-trip — all
# under the race detector — plus one racy iteration of the int8 kernel grid
# (n=1024 skipped, as in bench-smoke).
quant-smoke:
	$(GO) test -race -run 'TestQuant|TestQMatMul' ./internal/tensor/ ./internal/nn/
	$(GO) test -race ./internal/delta/
	$(GO) test -race -run 'TestQuantized|TestApplyDeltaCompressed' ./internal/pipestore/
	$(GO) test -race -v -run 'TestMixedFleetCompressedDeltas|TestCompressedLateJoinerRebases' ./internal/tuner/
	$(GO) test -race -run 'TestCacheKeyIncludesPrecisionMode' ./internal/serve/
	$(GO) test -race -benchtime 1x -benchmem -run '^$$' \
		-bench 'BenchmarkQMatMulGridLocal/n=(64|256)' ./internal/tensor/

# Failover chaos suite: a WAL-tailing hot standby under a live leader,
# the leader killed mid-round / between journal and broadcast / during a
# store catch-up, takeover-before-bootstrap refusal, and the dedicated
# split-brain test (fenced stale leader cannot commit or advance a
# store) — all under the race detector — plus the epoch-fence and
# multi-address dial tests on the store side.
failover-smoke:
	$(GO) test -race -v ./internal/ha/
	$(GO) test -race -run 'TestFence|TestDialRetry|TestDialBackoff' ./internal/pipestore/

# Durability chaos suite: replicated placement math, at-rest corruption
# (CRC frames, quarantine, seeded bitflip/truncate injection), and every
# test in internal/tuner/durability_test.go — the zero-ImagesLost degraded
# round at R=2 and the Reconcile pass (bit-flip repair over the wire,
# quarantine-never-served, missing-replica refill, store-loss retirement and
# its refusals) — all under the race detector. The tuner test list is read
# from the file, so a new durability test is never silently skipped.
DURABILITY_TESTS = $(shell sed -n 's/^func \(Test[A-Za-z0-9_]*\)(t \*testing\.T).*/\1/p' internal/tuner/durability_test.go | paste -sd'|' -)

durability-smoke:
	$(GO) test -race ./internal/placement/ ./internal/photostore/
	$(GO) test -race -run 'TestObject|TestParseFaults' ./internal/durable/
	$(GO) test -race -run 'TestScrub|TestIngestReplica' ./internal/pipestore/
	$(GO) test -race -run 'Replicat' ./internal/inferserver/
	$(GO) test -race -v -run '^($(DURABILITY_TESTS))$$' ./internal/tuner/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Non-test Go lines per package and the total, outside bench/ (a module of
# its own, frozen against the benchmark driver).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

ci: build vet fmt-check race bench bench-test wire-fuzz chaos crash serve-smoke obs-smoke quant-smoke failover-smoke durability-smoke
