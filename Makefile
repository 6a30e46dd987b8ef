GO ?= go

.PHONY: all build vet test tier1 race bench bench-layout unreached unreached-check examples trace-smoke campaign-smoke serve-smoke sse-smoke fleet-smoke census-smoke fuzz clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# tier1 is the CI gate: gofmt-clean sources, clean build, vet, and the
# full suite under the race detector (the batch scanner and FindDualXOR
# run worker pools). The benchmark's build cache (.bench_build) is not
# source and is left out of the format check.
tier1:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
		if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./internal/core/...

bench:
	$(GO) test -bench=. -benchmem .

# bench-layout builds snowbench the way bench/run.sh does (same module,
# environment and build cache, into .bench_build/layout) and prints
# where the linker placed the ledger's calibration kernel and the
# SHA-256 block function it hashes with, modulo 64. The kernel's time
# moves with that placement (ROADMAP item 9), so two commits compare
# cleanly only when both print the same offsets.
bench-layout:
	@root=$$(pwd); out=$$root/.bench_build; mkdir -p $$out/layout; \
	(cd bench && GOCACHE=$$out/go-cache GOPATH=$$out/go-path GOTOOLCHAIN=local GOWORK=off \
		$(GO) build -o $$out/layout/snowbench ./cmd/snowbench) || exit 1; \
	$(GO) tool nm $$out/layout/snowbench | while read addr kind sym; do \
		case "$$sym" in 'main.(*kernelState).run'|crypto/internal/fips140/sha256.block) \
			printf '%-40s 0x%s  mod 64 = %d\n' "$$sym" "$$addr" $$((0x$$addr % 64));; \
		esac; \
	done

# unreached prints every production function of the module that none of
# its binaries links (tools/unreached.sh builds them with inlining off
# and reads their symbol tables). unreached-check is the CI gate: it
# fails on any such function that tools/unreached.allow does not name
# with its reason.
unreached:
	@sh tools/unreached.sh

unreached-check:
	@sh tools/unreached.sh -check

# examples runs every program under examples/ end to end; each exits
# non-zero if the facade calls it demonstrates stop working.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

# trace-smoke exercises the observability path end to end: run the
# attack with -trace, then feed the NDJSON through the independent
# tracestat decoder. Either tool failing (or an empty trace) fails the
# target — this is the CI guard that the trace format and its reader
# never drift apart.
trace-smoke:
	$(GO) run ./cmd/snowbma attack -trace /tmp/snowbma-trace.ndjson > /dev/null
	@test -s /tmp/snowbma-trace.ndjson || { echo "empty trace"; exit 1; }
	$(GO) run ./tools/tracestat /tmp/snowbma-trace.ndjson
	$(GO) test -run xxx -bench 'BenchmarkAttackEndToEnd/batch-64' -benchtime 3x .

# campaign-smoke runs a seeded 25-scenario chaos campaign under the race
# detector: every fault must surface as a typed error (never a wrong key
# or a panic) and every clean scenario must recover the key, or the
# campaign exits non-zero. The JSON report lands in /tmp for inspection.
campaign-smoke:
	$(GO) run -race ./cmd/snowbma campaign -runs 25 -chaos -seed 7 -parallel 2 \
		-json /tmp/snowbma-campaign.json
	@test -s /tmp/snowbma-campaign.json || { echo "empty campaign report"; exit 1; }

# serve-smoke is the end-to-end serving exercise under the race
# detector: concurrent attack jobs over HTTP recover correct keys
# through one cached victim build, queue overflow surfaces as a typed
# 429, a running campaign job is cancelled mid-flight, and shutdown
# drains the rest without leaking a goroutine.
serve-smoke:
	$(GO) test -race -count=1 -v -run 'TestServeSmoke|TestServeOnLifecycle' \
		./internal/service ./cmd/snowbma

# sse-smoke exercises the live event streams end to end under the race
# detector: mid-job join with ring-buffer catch-up, Last-Event-ID
# resume, slow-subscriber drop accounting, firehose close on shutdown,
# and the differential check that the SSE stream reconstructs the same
# phase tree as the NDJSON trace of the same job. The obstop dashboard's
# independent SSE decoder and render model run against synthetic frames.
sse-smoke:
	$(GO) test -race -count=1 -v \
		-run 'TestJobEvents|TestFirehose|TestSlowSubscriber|TestSSEPhaseTree' \
		./internal/service
	$(GO) test -count=1 ./tools/obstop/

# fleet-smoke is the crash-recovery exercise under the race detector:
# real worker processes (the test binary re-execs itself) behind the
# sharding coordinator, one worker SIGKILLed mid-campaign with live
# jobs, its leases expiring and the jobs reassigned, the worker
# restarting on the same durable store and rejoining — and every job
# reaching a terminal state exactly once (the event log is audited for
# duplicate terminal transitions).
fleet-smoke:
	$(GO) test -race -count=1 -v -timeout 5m \
		-run 'TestFleetKillRestartSmoke|TestFleetLeaseReassignment' ./internal/fleet/

# census-smoke is the census-at-scale exercise under the race detector:
# a seeded 200-design corpus streams through the shared scan engine,
# and the report invariants are checked exactly — every fourth design
# carries the countermeasure and must census to 0 target-class LUTs
# (covered), every other design to exactly 32 (exposed), and every
# first add must scan all of its frames. The census harness checks that
# a re-add rescans exactly the windows its edit changed and answers as
# NoDedup, a first add and the FindLUT definition do. The fleet
# sharding path (composite corpus job split across two real worker
# processes, merged report equal to the single-engine run) and the CLI
# surface ride along.
census-smoke:
	$(GO) test -race -count=1 -v -timeout 15m \
		-run 'TestCorpusCensusSmoke|TestCorpusDifferential|TestCorpusIncrementalRescan' \
		./internal/corpus/
	$(GO) test -race -count=1 -v -timeout 10m \
		-run 'TestFleetCorpusSharding|TestErrorShapeParity' ./internal/fleet/
	$(GO) run ./cmd/snowbma census -corpus -n 8 -seed 3 -json /tmp/snowbma-corpus.json > /dev/null
	@test -s /tmp/snowbma-corpus.json || { echo "empty corpus report"; exit 1; }

# Short fuzz passes over the differential harnesses: the scan harness
# (batch scanner vs FindLUT, its option paths and the decode-based
# dual-XOR oracle), the fabric harness (compiled program vs walker,
# scalar, shared-Compiled and partially reconfigured devices), and the
# census harness (a re-added design, flipped, truncated or extended,
# vs NoDedup, a first add and the FindLUT definition). The packet
# walker gets a pass of its own: untrusted bytes must parse or fail
# with an error, and a parsed CRC write must reseal to a stream that
# passes CheckCRC. So does device.Load: a mutated image must configure
# or fail with an error, and a configured device must survive a clock.
# Both take ~70 kB images as new inputs (for device.Load each try is a
# full configuration). JobSpec JSON gets a pass too: a POST /jobs body
# must decode and validate or fail with ErrSpec, and an accepted spec
# must keep every size field within its cap. So does an SSE
# Last-Event-ID: any header must replay exactly the events after the id
# it names, or after the stream's own resume point when it names none.
# So does the WAL decoder: corrupt bytes must end in a typed error with
# a usable record prefix. Minimizing a new input is capped at 2 s on
# every pass that stalls without the cap (the scanner and WAL passes
# made no executions for most of a 20 s run uncapped), so the pass time
# goes to fuzzing.
fuzz:
	$(GO) test ./internal/core/ -run FuzzScannerDifferential -fuzz FuzzScannerDifferential -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/device/ -run FuzzProgramDifferential -fuzz FuzzProgramDifferential -fuzztime 60s
	$(GO) test ./internal/corpus/ -run FuzzCorpusReadd -fuzz FuzzCorpusReadd -fuzztime 30s
	$(GO) test ./internal/bitstream/ -run FuzzParsePackets -fuzz FuzzParsePackets -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/device/ -run FuzzLoad -fuzz FuzzLoad -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/service/ -run FuzzDecodeSpec -fuzz FuzzDecodeSpec -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/obs/ -run FuzzSSELastEventID -fuzz FuzzSSELastEventID -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/store/ -run FuzzWALDecode -fuzz FuzzWALDecode -fuzztime 30s -fuzzminimizetime 2s

clean:
	$(GO) clean -testcache
