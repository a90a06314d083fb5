GO ?= go

.PHONY: check lint vet build test allocgate perfgate cover chaos scenarios fuzzsmoke benchsmoke bench perf flight

# check is the pre-commit gate: static checks, the full suite under the
# race detector, the datapath allocation gates with a short benchtime
# pass over every micro-benchmark, the perf-regression gate against the
# committed baseline, the per-package coverage floors, the chaos seed
# matrix, a short fuzz pass over the epoch-carrying wire codec and the
# metrics exposition encoder, and a smoke run of the end-to-end stack
# benchmark.
check: lint build test allocgate perfgate cover chaos fuzzsmoke benchsmoke

# lint is go vet, gofmt and staticcheck. Any tracked Go file gofmt would
# rewrite fails it. staticcheck is not vendored and dev machines may be
# offline, so it runs only where the binary is already on PATH (CI
# installs it; see .github/workflows/ci.yml) and is skipped with a notice
# elsewhere — vet and gofmt always run.
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, skipping (CI runs it)"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# allocgate runs every allocation gate — each is a Test...ZeroAlloc in
# internal/perf — then one short pass over every micro-benchmark.
allocgate:
	$(GO) test ./internal/perf/ -run 'ZeroAlloc$$' -count=1
	$(GO) test ./internal/perf/ -run '^$$' -bench . -benchmem -benchtime 10ms

# perfgate re-measures the zero-allocation invariants and the batched
# egress headline, failing if throughput drops below 80% of the
# committed BENCH_2.json baseline, then validates the committed sim-engine
# headline (BENCH_4.json: >= 5x the heap/sequential baseline at 10k sites)
# and re-measures the engine live on the 1k-site scenario (3x floor plus
# exact trace-hash equality between engines). Refresh the baselines with
# `make bench` (BENCH_2) and `go run ./cmd/lbrm-perf -sim` (BENCH_4).
perfgate:
	$(GO) run ./cmd/lbrm-perf -gate

# cover enforces per-package statement-coverage floors on the protocol
# endpoints, the logging servers, the wire codec and the observability
# layer — including the control-plane packages (series ring, health/SLO
# engine, fleet scraper) — and on the chaos harness, whose invariant
# checkers must each be reached by some seeded run or unit test. Floors
# sit below current coverage (core 87 / logger 79 / wire 86 / obs 93 /
# series 88 / health 92 / fleet 85 / chaos 87 at the time of writing) so
# routine growth doesn't trip them, but an untested subsystem landing in
# one of these packages does.
COVER_FLOORS = ./internal/core:80 ./internal/logger:72 ./internal/wire:80 ./internal/obs:87 ./internal/obs/series:84 ./internal/obs/health:87 ./internal/obs/fleet:80 ./internal/vtime:85 ./internal/netsim:75 ./internal/chaos:80 ./internal/seqtrack:95

cover:
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
	  pkg=$${spec%%:*}; floor=$${spec##*:}; \
	  pct=$$($(GO) test -count=1 -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  if [ -z "$$pct" ]; then echo "cover: FAIL $$pkg (no coverage output)"; fail=1; continue; fi; \
	  if [ "$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}')" != 1 ]; then \
	    echo "cover: FAIL $$pkg at $$pct% (floor $$floor%)"; fail=1; \
	  else \
	    echo "cover: ok   $$pkg at $$pct% (floor $$floor%)"; \
	  fi; \
	done; exit $$fail

# chaos drives the deterministic fault-injection matrix under the race
# detector: fixed seeds, crash/partition/link-chaos schedules, end-to-end
# recovery invariants. A failure prints the seed and the fault schedule —
# reproduce any run with
#   go run ./cmd/lbrm-sim -chaos -seed N [-chaos-crash-primary] ...
chaos:
	$(GO) test -race ./internal/chaos/ -count=1

# scenarios is the adversarial scenario-matrix smoke: one pinned seed per
# class (flash-crowd, crying-baby, diurnal, mixed, broadcast), each run
# sequentially, in parallel, and in parallel+bulk under the race detector,
# with the three FNV trace hashes required to be identical and every
# class's seeded invariants enforced. Reproduce one class with
#   go run ./cmd/lbrm-sim -scenario crying-baby -seed N [-parallel -bulk]
scenarios:
	$(GO) test -race ./internal/chaos/ -run 'TestScenarioMatrix|TestScenarioFlashCrowdBackfill|TestScenarioCryingBabyContainment' -count=1

# fuzzsmoke runs a short coverage-guided pass over the codec surfaces:
# the wire codec (the surface that grew the primary-epoch, advance-record
# and quorum-ring fields), the quorum-ack watermark block specifically
# (variable-length replica watermarks + ring epoch fencing), the
# metrics/trace exposition encoder (no-panic + lossless JSON round-trip),
# and the Prometheus text exposition (line discipline + escaping under
# adversarial metric names and values). The seed corpora alone run in
# every `go test`; this target actually mutates.
fuzzsmoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzQuorumAck -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzExposition -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzPromExposition -fuzztime 10s

# benchsmoke keeps the end-to-end stack benchmark (bench/, BENCHMARK.json)
# runnable: its own tests, then one short udp-steady run through the
# driver's entry point. Every run checks its own correctness (exactly-once
# delivery, payload bytes, no OnLost or Send error) and exits non-zero
# otherwise; the numbers of a 3 s run mean nothing and are discarded.
benchsmoke:
	$(GO) test ./bench/...
	bash bench/run.sh --workload udp-steady --seed 1 --seconds 3 --trace 0 >/dev/null

# flight runs the chaos matrix with the recovery flight recorder's fleet
# timeline enabled, writing one JSONL flight log per seed into
# $(FLIGHT_DIR), then validates every log against the golden schema
# (internal/chaos/testdata/flight_schema.golden): parseable JSONL,
# monotonic sample times, and the end-of-run flight.* chain summary.
FLIGHT_DIR ?= flightlogs
FLIGHT_SEEDS ?= 1 2 3

flight:
	@mkdir -p $(FLIGHT_DIR)
	@for seed in $(FLIGHT_SEEDS); do \
	  echo "chaos seed $$seed → $(FLIGHT_DIR)/chaos-seed$$seed.jsonl"; \
	  $(GO) run ./cmd/lbrm-sim -chaos -seed $$seed -chaos-faults 8 \
	    -flight-log $(FLIGHT_DIR)/chaos-seed$$seed.jsonl || exit 1; \
	done
	$(GO) test ./internal/chaos/ -run TestFlightLogSchema -count=1 \
	  -flight-glob '$(abspath $(FLIGHT_DIR))/*.jsonl'

# bench re-measures the hot-datapath suite and rewrites the committed
# BENCH_2.json baseline (the perfgate reference point), then runs every
# other benchmark in the repo at full benchtime.
bench:
	$(GO) run ./cmd/lbrm-perf -o BENCH_2.json
	$(GO) test -run '^$$' -bench . -benchmem ./...

# perf re-measures the hot-datapath suite and rewrites BENCH_2.json
# without the full repo-wide benchmark sweep.
perf:
	$(GO) run ./cmd/lbrm-perf
