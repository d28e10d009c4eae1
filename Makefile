# Tier-1 verification: build, vet, and the full test suite under the race
# detector (the concurrency layer — profiler cache, parallel detectors,
# parallel experiment grid — must stay race-clean). The resilience suite
# (fault injection, deadlines, graceful degradation) runs a second,
# focused pass so a fault-harness regression is reported by name, and
# efeslint enforces the cross-cutting invariants (DESIGN.md §8). The
# gofmt gate covers every tracked .go file except testdata, whose golden
# diagnostics pin line:col positions, and the benchmark's build directory.
# Last, perfbench-smoke builds and checks the benchmark module, which
# `go build ./...` and `go test ./...` never see.
.PHONY: verify build test bench bench-smoke faults lint efesd-smoke perfbench-smoke

verify:
	go build ./...
	go vet ./...
	@unformatted=$$(git ls-files '*.go' | grep -Ev '(^|/)testdata/|^\.bench_build/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	go test -race ./...
	go test -race -run 'Fault|Resilience' ./...
	go test -race -run 'KillRestart|GracefulDrain|EvictionSmoke' ./cmd/efesd/
	go run ./cmd/efeslint ./...
	$(MAKE) perfbench-smoke

# efeslint: the in-tree static analyzer (internal/lint). Exits nonzero on
# any finding; see `go run ./cmd/efeslint -list` for the rules.
lint:
	go run ./cmd/efeslint ./...

# The fault-injection and resilience suite alone, twice, to shake out
# order- and state-dependent behavior in the harness (arming/Reset).
faults:
	go test -race -count=2 -run 'Fault|Resilience' ./...

# Daemon crash-safety smoke: SIGKILL a real efesd mid-workload, restart
# over the same cache directory, assert byte-identical warm answers with
# zero recomputed profiles; plus the SIGTERM graceful drain. The child
# is the production main() re-exec'd, so the flock release, the ready
# line, and the signal handling are all the shipped code paths.
efesd-smoke:
	go test -race -run 'KillRestart|GracefulDrain|EvictionSmoke' ./cmd/efesd/

# The benchmark's own checks. perfbench is a module of its own, so
# `go test ./...` never builds it: vet and unit-test it, then run a short
# paper-cold pass. That run loads the paper-scale scenario through the
# CSV path and exits 1 if any estimate's bytes differ from the
# in-process reference, or if the Table 3, Table 6 or 66,875-minute
# figures are wrong.
perfbench-smoke:
	cd perfbench && go vet . && go test .
	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 3 --trace 0

build:
	go build ./...

test:
	go test ./...

# Full benchmark run, captured as machine-readable JSON (cmd/benchjson).
# Appends to BENCH_10.json so before/after runs can live side by side:
#   make bench LABEL=after
# (BENCH_6.json holds the pre-sharding trajectory for comparison.)
LABEL ?= current
bench:
	go run ./cmd/benchjson -bench . -label $(LABEL) -append -out BENCH_10.json

# Compile-and-smoke: every benchmark runs exactly one iteration (-short
# skips the XLarge tier, whose million-tuple scenario generation alone
# takes tens of seconds). Keeps bench-only code (bench_test.go,
# LargeExampleConfig) from bitrotting without paying for a full
# measurement run; wired into CI. The second step is the perf regression
# gate: FullEstimateLarge must stay under its ceiling (the interned CSG
# instance brought it from ~800ms to <50ms on the reference machine;
# 250ms leaves headroom for slow CI hardware while still catching a
# return to the string-instance regime). The third gates the profiling
# kernels the same way: ProfileDatabaseLarge ran ~15 ms at BENCH_6 and
# must not creep back toward the row-path regime — 75 ms applies the
# same ~5x slow-hardware headroom — and the parallel variant, which
# profiles up to four columns at once, must not cost more than the
# single-worker pass. The fourth
# gates CSV ingest: LoadDirLarge ran 20–27 ms at -cpu 2 on a shared
# 2-vCPU VM once ReadCSV split records in place and pushed fields as
# bytes, against 29–35 ms through encoding/csv. 80 ms keeps ~3.5x
# headroom for slow runners, as the other ceilings do: it catches a
# gross regression of the load, and paired perfbench runs measure finer
# ones. Its MB/s counts the CSV bytes loaded. The fifth gates the
# content address every efesd upload and every `efes -cache-dir` run
# pays: ScenarioHash over the paper-scale running example, loaded
# through LoadDir, ran 42–76 ms on the same VM once WriteCSV rendered
# from the column vectors, against 75–148 ms through encoding/csv.
# 220 ms keeps ~3.5x headroom, as the other ceilings do. The sixth gates
# the schema matcher that efesd's /v1/match, discover uploads and
# `efes -discover` run: MatcherLargeCold, a first Match of fresh copies
# of the large example, ran 15–19 ms on the same VM once each column was
# sampled from its text view's dictionary through a bounded heap, with
# nothing memoized on the vectors. 60 ms keeps ~3.5x headroom.
bench-smoke:
	go test -short -run '^$$' -bench . -benchtime 1x .
	go run ./cmd/benchjson -bench '^BenchmarkFullEstimateLarge$$' -benchtime 3x \
		-out '' -assert BenchmarkFullEstimateLarge=250ms
	go run ./cmd/benchjson -bench '^BenchmarkProfileDatabaseLarge(Parallel)?$$' -benchtime 3x \
		-out '' -assert 'BenchmarkProfileDatabaseLarge=75ms,BenchmarkProfileDatabaseLargeParallel=75ms'
	go run ./cmd/benchjson -bench '^BenchmarkLoadDirLarge$$' -benchtime 3x \
		-out '' -assert BenchmarkLoadDirLarge=80ms
	go run ./cmd/benchjson -bench '^BenchmarkScenarioHash$$' -benchtime 3x \
		-out '' -assert BenchmarkScenarioHash=220ms
	go run ./cmd/benchjson -bench '^BenchmarkMatcherLargeCold$$' -benchtime 3x \
		-out '' -assert BenchmarkMatcherLargeCold=60ms
