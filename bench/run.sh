#!/bin/sh
# The benchmark's one command (BENCHMARK.json names it), run from the root
# of the checkout:
#
#   sh bench/run.sh --workload steady_bulk --seed 1 --seconds 24 --trace 0
#
# It is `go run ./bench "$@"` with two differences. The Go build cache and
# temporary files live under .bench_build/, so nothing is written outside
# the checkout. And the driver is built and then exec'ed, not run as a
# child of `go run`, so that whoever kills this process kills the driver
# itself, whose daemon dies with it.
set -eu
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" GOTOOLCHAIN=local GOWORK=off
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
