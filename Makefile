# POI360 reproduction — build/verify targets.
#
# `make ci` runs the exact pipeline .github/workflows/ci.yml runs, so a
# green local `make ci` means a green CI run (and vice versa).

GO ?= go

.PHONY: all build test race lint vet fmt bench-smoke obs-smoke live-smoke bench-check escape-check bench-profile mutants ci

all: build

## build: compile every package and command.
build:
	$(GO) build ./...

## test: the tier-1 test suite.
test:
	$(GO) test ./...

## race: the suite under the race detector in short mode — the
## fault-injection, shared-cell, city, observability and live-transport
## subsystems are all raced here. Five tests or rows skip under -short (the
## session allocation gate, the two full-scale city acceptance runs, the
## multiuser row of TestWorkersByteIdentical and TestMultiUserMeasured) and
## three shorten (TestCityFingerprintsPinned's
## long case, TestCitySteadyStateAllocFree's second window,
## TestIncrementalTrendlineTracksScan from 6 h to 1 h); plain `make test`
## runs them in full. Then a full-mode raced pass of TestWorkersByteIdentical
## (every worker-count identity row, the multi-user one included) and
## TestMultiUserMeasured, two more passes of the city's epoch-barrier tests with
## GOMAXPROCS 1 and 2 in the environment — the hand-off's yield path and
## its park path raced on one P and on two, whatever the runner's core
## count (-count=1: the test cache does not key on GOMAXPROCS) — one
## pass of the row-reuse tests and the city's two Workers byte-identity
## tests with GOMAXPROCS 2, where the city's coordinator hands freed
## modem rows to new residencies, folds departing residencies into the
## shards' fairness sums and rebinds radio probes to target buses between
## pooled advances — and one raced pass of the city epoch loop at 1/2/4/8
## workers.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run '^(TestWorkersByteIdentical|TestMultiUserMeasured)$$' ./internal/experiments
	GOMAXPROCS=1 $(GO) test -race -short -count=1 -run 'EpochBarrier|RunLeavesNoHelpers' ./internal/network
	GOMAXPROCS=2 $(GO) test -race -short -count=1 -run 'EpochBarrier|RunLeavesNoHelpers' ./internal/network
	GOMAXPROCS=2 $(GO) test -race -short -count=1 -run 'RowReuse|ReusedRow|DetachRecycles|CityByteIdentityAcrossWorkers|CityBinaryTelemetryByteIdentity' ./internal/network ./internal/lte
	$(GO) test -race -bench 'CityWorkers' -benchtime 1x -run '^$$' ./internal/network

## lint: gofmt cleanliness (vet is its own target so the CI matrix can
## report formatting and analysis failures independently).
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

## vet: go vet static analysis.
vet:
	$(GO) vet ./...

## fmt: rewrite files in place with gofmt.
fmt:
	gofmt -w .

## bench-smoke: run every benchmark exactly once (no -run tests) to catch
## bit-rot in the figure-regeneration and engine-scaling benchmarks, with
## -benchmem so the allocation-sensitive ones leave numbers in the log next
## to the TestPerf* gates that `make test` enforces.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

## obs-smoke: 15 s of coverage-guided fuzzing of each observability
## target (the P6T codec round-trip and the replayer on cut and hostile
## input), then an end-to-end CLI pass over the one trace format: one FBCC
## session on the busy cell (with a capacity-step fault so congestion
## episodes actually fire inside 60 s) streamed through -obs, checking that
## the episode stats are non-empty, that poi360-trace decodes the file into
## well-formed JSONL lines, and that its -view episodes line is the one the
## simulator printed. The subsystem's unit tests and fuzz seed corpora run
## raced in `make race`, its Emit-cost benchmarks in `make bench-smoke`.
JSONL_LINE := ^\{"t":[0-9]+(\.[0-9]+)?,"kind":"[a-z0-9_.]+","sub":-?[0-9]+(,"[a-z0-9_]+":-?[0-9]+(\.[0-9]+)?)*\}$$
obs-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventBinaryRoundTrip$$' -fuzztime 15s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzReplayerFeed$$' -fuzztime 15s ./internal/obs
	@out="$$(mktemp -d)"; trap 'rm -rf "$$out"' EXIT; \
	$(GO) build -o "$$out" ./cmd/poi360-sim ./cmd/poi360-trace || exit 1; \
	"$$out/poi360-sim" -rc fbcc -cell busy -faults capacity-step \
		-duration 60s -seed 1 -obs "$$out/f.pbt" > "$$out/sim.txt" \
		|| { cat "$$out/sim.txt"; exit 1; }; \
	cat "$$out/sim.txt"; \
	grep -E '^  episodes: [1-9][0-9]* congestion' "$$out/sim.txt" >/dev/null \
		|| { echo "obs-smoke: no congestion episodes reported"; exit 1; }; \
	"$$out/poi360-trace" "$$out/f.pbt" > "$$out/events.jsonl" || exit 1; \
	test -s "$$out/events.jsonl" || { echo "obs-smoke: empty JSONL"; exit 1; }; \
	bad="$$(grep -cEv '$(JSONL_LINE)' "$$out/events.jsonl" || true)"; \
	[ "$$bad" = "0" ] || { echo "obs-smoke: $$bad malformed JSONL lines"; exit 1; }; \
	"$$out/poi360-trace" -view episodes "$$out/f.pbt" > "$$out/episodes.txt" || exit 1; \
	sed -n 's/^  episodes: //p' "$$out/sim.txt" | cmp -s - "$$out/episodes.txt" \
		|| { echo "obs-smoke: poi360-trace -view episodes differs from the simulator's line"; \
		     cat "$$out/episodes.txt"; exit 1; }; \
	echo "obs-smoke: ok"

## live-smoke: 15 s of coverage-guided fuzzing of each real-transport
## target (the media and report codecs; report bytes into a Sender, media
## bytes into a Viewer) — then two real ~2 s sessions, one under FBCC and
## one under GCC, between a sender and a receiver process over loopback
## UDP (scripts/live_smoke.sh), with both processes enforcing minimum media
## and feedback progress and the script checking that the JSON summaries
## keep their keys. The backend's unit tests (the jitter buffer against its
## always-heap oracle, the per-packet allocation gates, the pooled socket
## reader, the synthesized diag feed, the wall-clock scheduler, the live
## wiring of the session halves on virtual time) and the fuzz seed corpora
## run raced in `make race`.
live-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPacketWireRoundTrip$$' -fuzztime 15s ./internal/rtp
	$(GO) test -run '^$$' -fuzz '^FuzzReportRoundTrip$$' -fuzztime 15s ./internal/realnet
	$(GO) test -run '^$$' -fuzz '^FuzzSenderReports$$' -fuzztime 15s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzViewerDatagrams$$' -fuzztime 15s ./internal/session
	sh scripts/live_smoke.sh

## bench-profile: rerun the headline session benchmark under the CPU and
## heap profilers; profiles land in ./profiles for `go tool pprof`.
bench-profile:
	@mkdir -p profiles
	$(GO) run ./cmd/poi360-bench -experiment fig16a \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof
	@echo "profiles written to ./profiles (inspect with: go tool pprof profiles/cpu.pprof)"

## bench-check: keep the repository's one performance ledger working. The
## benchmark is a module of its own, which the root `go test ./...` never
## enters, so an API change here could break it unnoticed: vet it, run its
## tests, and run every workload, invariant and layer driver once (seconds).
## Measuring is `bash benchmark/run.sh -workload all`; see benchmark/README.md.
bench-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	bash benchmark/run.sh -check

## escape-check: no new heap-escaping local and no lost inlining in the
## per-event packages (obs, lte, simclock, network, ratecontrol, rtp,
## netsim, realnet, fifo, compress, seeds) and the per-frame media path
## (session, video, projection, headmotion). One -gcflags=-m=2 build:
## its `moved to heap` diagnostics, keyed by file and variable, are diffed
## against scripts/escape_allow.txt, and every function listed in
## scripts/inline_must.txt must be reported `can inline`. A new escape or
## a listed function the compiler no longer inlines fails with the
## compiler's line. An escaping local on an emit path is one allocation
## per event; a hot function over the inline budget is one call per event.
escape-check:
	sh scripts/escape_check.sh

## mutants: the mutation gate. Every row of scripts/mutants.txt — a file,
## an exact fragment, its replacement, a package and a -run regex — is
## applied to a copy of the checkout in .mutants_build/
## (scripts/mutants.sh): the named tests must pass on the copy and fail on
## the mutant. A fragment not found exactly once, a mutant that does not
## build or a surviving mutant fails the target. Each differential oracle
## has a row, so an oracle that stops comparing anything shows here. About
## 3 minutes on 2 cores. (That every -run/-bench/-fuzz regex of this file
## and of the verify skill still selects a test is tier 1:
## TestRunPatternsSelectTests.)
mutants:
	bash scripts/mutants.sh

## ci: the umbrella target the GitHub workflow fans out over. Runs every
## target even after a failure and reports the full list of failed targets
## in the trailer, so one red gate doesn't hide another.
CI_TARGETS := build lint vet test race bench-smoke obs-smoke live-smoke bench-check escape-check mutants
ci:
	@failed=""; \
	for t in $(CI_TARGETS); do \
		echo "=== make $$t"; \
		$(MAKE) --no-print-directory $$t || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then \
		echo "ci: FAILED targets:$$failed"; exit 1; \
	fi; \
	echo "ci: all checks passed"
