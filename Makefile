# Verification tiers. tier-1 (verify) is the PR gate; tier-2 (verify-race)
# additionally vets the code and runs the full suite under the race detector,
# which must stay clean now that training fans out across a worker pool.
# The CI workflow (.github/workflows/ci.yml) runs lint, verify, verify-race,
# cover, bench-smoke and fuzz-smoke on every push and pull request.
# The paper's experiments are not `go test -bench` benchmarks: cmd/expbench
# runs the rows of exp.Experiments, and tier 1 smoke-runs every row at Tiny
# scale (TestExperimentTable). The only benchmarks in the root package are
# BenchmarkRegionDecode* (roi_bench_test.go), which bench-gate and
# bench-smoke run.

.PHONY: verify verify-race lint cover bench-gate bench-smoke fuzz-smoke

verify:
	go build ./... && go test ./...

verify-race:
	go vet ./... && go test -race ./...

# Static gate: vet plus gofmt cleanliness (gofmt -l must print nothing).
lint:
	go vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

# Coverage profile for the whole module, plus a hard floor of 85% on
# internal/obs — the observability layer is what CI gates on, so its own
# tests must not rot.
cover:
	go test -coverprofile=coverage.out ./...
	@go tool cover -func=coverage.out | tail -n 1
	go test -coverprofile=coverage.obs.out ./internal/obs
	@pct="$$(go tool cover -func=coverage.obs.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "internal/obs coverage: $$pct% (floor: 85%)"; \
	awk -v p="$$pct" 'BEGIN { exit !(p+0 >= 85) }'

# Timing gate: run the kernel benchmarks (every retained reference against
# its fast path) and the region-decode benchmarks (full decode against an
# eighth-volume region decode) five times each at -benchtime 1s and hold
# each ratio of the legs' fastest runs to the floor in cmd/benchguard's
# table; a missing leg fails too. The two legs of a ratio are sub-benchmarks
# of one parent, so their runs alternate and the gate holds on any machine;
# run it after touching a kernel or a region decode path. Absolute numbers
# and every claim go through `bash bench/run.sh` and `bench compare` instead
# (bench/README.md).
bench-gate:
	@out="$$(go test -run '^$$' -bench BenchmarkKernel -benchtime 1s -count 5 \
		./internal/sz/ ./internal/zfp/ ./internal/entropy/ ./internal/core/ \
		&& go test -run '^$$' -bench BenchmarkRegionDecode -benchtime 1s -count 5 .)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard

# One-iteration pass over the same two sets: proves the gated benchmarks
# still run and the filter still builds, without trusting the timings of a
# shared CI box.
bench-smoke:
	go vet ./cmd/benchguard
	go test -run '^$$' -bench BenchmarkKernel -benchtime 1x \
		./internal/sz/ ./internal/zfp/ ./internal/entropy/ ./internal/core/
	go test -run '^$$' -bench BenchmarkRegionDecode -benchtime 1x .

# Short fuzzing burst over every Fuzz* target, starting from the committed
# seed corpora (regenerate seeds with `go run ./cmd/genfixtures`). Each
# target runs for FUZZTIME (default 20s); a crasher fails the run and leaves
# its reproducer under testdata/fuzz/ for triage.
FUZZTIME ?= 20s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/sz/
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/zfp/
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/fpzip/
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) ./internal/mgard/
	go test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime $(FUZZTIME) ./internal/entropy/
	go test -run '^$$' -fuzz '^FuzzHuffmanDecode$$' -fuzztime $(FUZZTIME) ./internal/entropy/
	go test -run '^$$' -fuzz '^FuzzChunkedEntropy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/entropy/
	go test -run '^$$' -fuzz '^FuzzLZCompressMatchesRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/entropy/
	go test -run '^$$' -fuzz '^FuzzBatchContainer$$' -fuzztime $(FUZZTIME) ./internal/batch/
	go test -run '^$$' -fuzz '^FuzzFieldDecode$$' -fuzztime $(FUZZTIME) ./internal/fieldio/
	go test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/brick/
	go test -run '^$$' -fuzz '^FuzzForestUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/ml/
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) .
