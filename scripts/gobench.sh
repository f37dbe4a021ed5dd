#!/usr/bin/env bash
# gobench.sh — run the repository's `go test -bench` set (the layer
# benchmarks CI's bench-controller job runs, with the same iteration
# counts) and print one JSON document on stdout, stamped with the commit,
# the CPU and the Go version it was measured with. Nothing here is
# checked in: EXPERIMENTS.md's serving table quotes a run of this script,
# and a number that matters is re-measured with it, not copied.
#
#   bash scripts/gobench.sh > /tmp/gobench.json
#
# The end-to-end benchmark (real daemon, over the wire) is bench/run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# bench PATTERN BENCHTIME PACKAGE [GO-TEST-FLAGS...]
bench() { go test -run '^$' -bench "$1" -benchmem -benchtime "$2" "${@:4}" "$3"; }

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
[ -z "$(git status --porcelain 2>/dev/null)" ] || commit="$commit-dirty"

{
	# Closed-loop controller throughput, one round.
	bench BenchmarkControllerRound 1x ./fleet/
	# The estimator on the two shapes the tree runs: serving (window 256
	# refreshed every 8 points; floats, two-decimal readings and a counter
	# that outgrows 16-bit offsets) and census (fill 1024, read once).
	bench BenchmarkStreamVsBatchRefresh 1x .
	# The serving estimator's transform alone: a 256-point Hann PSD.
	bench 'BenchmarkPlanPSD256Hann' 100000x ./internal/dsp/
	# Ingest with and without the WAL (the delta is the durability tax),
	# the bare parse/append core, and the bulk lane; then steady_bulk's
	# frame shape (64 series x 64 consecutive samples, WAL armed), where
	# the parser's sid reuse and every stage's fan-out over the cores
	# show: on one core and on two, so the per-core scaling is in the log.
	bench 'BenchmarkIngestBatch|BenchmarkIngestWithWAL|BenchmarkIngestBatchAffinity|BenchmarkBulkLane' 100x ./internal/api/
	bench 'BenchmarkIngestFrame' 100x ./internal/api/ -cpu 1,2
	# Read path: the dashboard-hot raw window, sealed history decoded on
	# every read, the ?match= fan-in, and
	# reconstruct=auto (band-limited) against linear over a tier-1 run and
	# over a dashboard_hot query's 16 raw members.
	bench 'BenchmarkQueryHot|BenchmarkQueryCold|BenchmarkQueryMulti' 100x ./internal/tsdb/
	bench 'BenchmarkReconstructTier|BenchmarkReconstructMatch' 100x ./internal/api/
	# Both codecs' two kernels, on binary-quantized (XOR) and two-decimal
	# (decimal) data: ns and bytes per point and per bucket.
	bench 'BenchmarkBlockEncode|BenchmarkBlockDecode|BenchmarkBucketBlockEncode|BenchmarkBucketBlockDecode' 1x ./internal/tsdb/
	# The write path's counted costs (B/op, allocs/op) over a million
	# appends, so every store fills and the cascade is in the count.
	bench 'BenchmarkCompressedAppend|BenchmarkStoreAppendParallel' 1000000x ./internal/tsdb/
} | awk -v commit="$commit" -v gover="$(go env GOVERSION)" '
	/^cpu: / { cpu = substr($0, 6) }
	/^pkg: / { pkg = $2 }
	/^Benchmark/ && NF >= 4 {
		row = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s", pkg, $1, $2)
		for (i = 3; i < NF; i += 2) row = row sprintf(", \"%s\": %s", $(i + 1), $i)
		rows[n++] = row "}"
	}
	END {
		printf "{\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": [\n", commit, gover, cpu
		for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
		print "  ]\n}"
	}'
