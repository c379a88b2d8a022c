# Verification tiers. tier-1 (verify) is the PR gate; tier-2 (verify-race)
# additionally vets the code and runs the full suite under the race detector,
# which must stay clean now that training fans out across a worker pool.
# The CI workflow (.github/workflows/ci.yml) runs lint, verify, verify-race,
# cover and the bench-smoke/benchguard pair on every push and pull request.

.PHONY: verify verify-race lint cover bench-train bench-kernels bench-compress bench-serve bench-roi bench-entropy bench-load bench-shard bench-smoke benchguard fuzz-smoke

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

# Re-record the BENCH_train.json trajectory (run on a multi-core machine).
bench-train:
	go test -run xxx -bench BenchmarkTrainParallel -benchtime 3x .

# Run the kernel fast-path benchmarks and print old-vs-new deltas, gated
# against the recorded BENCH_kernels.json: fails if any kernel's measured
# speedup regressed more than 10% from the recorded one. Run this (and
# re-record the JSON) after touching any kernel.
bench-kernels:
	@out="$$(go test -run '^$$' -bench BenchmarkKernel -benchtime 1s \
		./internal/sz/ ./internal/zfp/ ./internal/entropy/ ./internal/core/)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard -deltas -baseline BENCH_kernels.json

# Run the serial-vs-parallel codec benchmarks and print w1-vs-w4 deltas,
# gated against the recorded BENCH_compress.json. The 1.5x pack floor only
# gates on machines with >= 4 cores (parallel speedups, unlike the kernel
# before/after ratios, are wall-clock and core-bound); elsewhere the table is
# informational and only a missing bench variant fails.
bench-compress:
	@out="$$(go test -run '^$$' -bench BenchmarkCompress -benchtime 1x .)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard -deltas -baseline BENCH_compress.json

# Run the serving-layer benchmarks and gate the http-vs-direct overhead
# against the recorded BENCH_serve.json: each endpoint's request must stay
# within its absolute overhead cap and within 10% of the recorded ratio.
# Overheads are within-run ratios, so the gate holds on any machine. Run
# this (and re-record the JSON) after touching internal/serve.
bench-serve:
	@out="$$(go test -run '^$$' -bench BenchmarkServe -benchtime 300ms ./internal/serve/)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard -deltas -baseline BENCH_serve.json

# Run the region-decode benchmarks and gate the full-vs-eighth speedup
# against the floors recorded in BENCH_roi.json: an eighth-volume decode out
# of an indexed zfp stream must stay >= 4x faster than a full decode.
# Speedups are within-run ratios, so the gate holds on any machine. Run this
# (and re-record the JSON) after touching the region decode paths
# (internal/roi, internal/zfp/region.go, internal/sz/region.go).
bench-roi:
	@out="$$(go test -run '^$$' -bench BenchmarkRegionDecode -benchtime 1s .)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard -deltas -baseline BENCH_roi.json

# Run the chunked-entropy decode benchmark and gate the serial-vs-chunked
# deltas against the recorded BENCH_entropy.json: the w4-vs-serial 2x floor
# only gates on machines with >= 4 cores (wall-clock, core-bound); the w1
# overhead cap and the <= 1% chunk-table size budget are validated against
# the recorded file on any machine. Run this (and re-record the JSON) after
# touching internal/entropy.
bench-entropy:
	@out="$$(go test -run '^$$' -bench BenchmarkChunkedDecode -benchtime 1s ./internal/entropy/)" \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | go run ./cmd/benchguard -deltas -baseline BENCH_entropy.json

# One-iteration benchmark pass: proves the benchmarks still run, without
# trusting the timings of a shared CI box (the timing gate is bench-kernels,
# run on a quiet recording machine).
bench-smoke:
	go test -run '^$$' -bench BenchmarkTrainParallel -benchtime 1x .
	go test -run '^$$' -bench BenchmarkKernel -benchtime 1x \
		./internal/sz/ ./internal/zfp/ ./internal/entropy/ ./internal/core/
	go test -run '^$$' -bench BenchmarkServe -benchtime 1x ./internal/serve/
	go test -run '^$$' -bench BenchmarkRegionDecode -benchtime 1x .
	go test -run '^$$' -bench BenchmarkChunkedDecode -benchtime 1x ./internal/entropy/

# Re-record the BENCH_load.json mixed-load baseline and gate it: fxrzload
# trains a small model, serves it in-process (fxrzd's real handler), drives
# the 90:5:5 estimate/unpack/pack mix for LOADTIME, and writes the summary
# with the p99 and shed caps baked in; benchguard then validates the file
# (counts consistent, percentiles monotone, p99s under their caps, shed rate
# under its cap). Run this (and commit the JSON) after touching the serving
# or admission paths. Absolute latencies are machine-bound — re-record rather
# than compare across boxes.
LOADTIME ?= 10s
bench-load:
	go run ./cmd/fxrzload -selfserve -duration $(LOADTIME) -concurrency 8 \
		-max-inflight 8 -seed 1 -shed-cap 0.25 \
		-p99-caps "estimate=40,unpack=60,pack=80" \
		-note "recorded via 'make bench-load' (fxrzload -selfserve) on the PR container" \
		-out BENCH_load.json
	go run ./cmd/benchguard BENCH_load.json

# Re-record the BENCH_shard.json scatter-gather comparison and gate it:
# fxrzload drives the same batch workload against one in-process instance and
# then a 2-instance shard ring (same trained model, items carrying distinct
# shard keys so batches actually split), records the amortized per-item
# p50/p99 for both, and writes the sharded/single p50 ratio with the overhead
# cap baked in; benchguard then validates the file. The ratio is a within-run
# comparison, so it gates on any machine. Run this (and commit the JSON)
# after touching internal/shard or the batch serving paths.
SHARDTIME ?= 5s
bench-shard:
	go run ./cmd/fxrzload -selfserve -shards 2 -batch 8 \
		-duration $(SHARDTIME) -concurrency 8 -max-inflight 8 -seed 1 \
		-mix 80:10:10 -overhead-cap 3 \
		-note "recorded via 'make bench-shard' (fxrzload -shard-out) on the PR container" \
		-shard-out BENCH_shard.json
	go run ./cmd/benchguard BENCH_shard.json

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
	go test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) .

# Validate the recorded baseline files stay machine-readable and keep their
# speedup floors.
benchguard:
	go run ./cmd/benchguard BENCH_train.json BENCH_kernels.json BENCH_compress.json BENCH_serve.json BENCH_roi.json BENCH_entropy.json BENCH_load.json BENCH_shard.json
