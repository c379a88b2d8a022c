#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source into .bench_build/ with the Go build
# cache kept there too, so a run reads and writes nothing outside the
# checkout, then hands its arguments to the binary. In a directory without
# the module's sources the build fails and nothing is printed.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (no go.mod or internal/ here)" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/fxrzbench ./bench
exec .bench_build/fxrzbench "$@"
