#!/usr/bin/env bash
# size.sh — print the "least machinery" numbers ROADMAP aim 2 tracks
# for the main module (tools/ and bench/ excluded): non-test Go LoC, the
# nyquistd flag count, the exported-field count of the six config
# structs (each field is an independently settable value), the
# //nyquist:allow-* annotation count, and the state one warm series
# retains: the estimator's, for a stream of two-decimal readings (its
# window held as 2-byte decimal offsets), a counter 2^15 past its first
# sample (4-byte offsets) and one of arbitrary floats (8-byte samples)
# (core's TestStreamStateSize, one line per form), the rate policy's,
# retention hold included, on top of it (monitor's
# TestIngestSeriesStateSize) and the
# store's, for a warm series and one shaped like highcard_http's (tsdb's
# TestSeriesStateBytes), the share of a high-cardinality series' heap
# those named parts cover (tsdb's TestHighcardStateAccounted, which fails
# under 90 %) — what a warm ingest batch
# allocates per point (api's TestIngestBatchAllocCeiling: only the sealed
# payloads the store keeps), the bytes one pooled ingest batch holds at
# rest after a highcard_http-shaped body and a steady_bulk-shaped frame
# (api's TestIngestBatchRestBytes), and the retune flap rate: how often a steady
# fleet's retention moves (monitor's TestIngestEstimatorFlapRate), and the
# os.* calls in internal/wal outside its filesystem seam (fs.go), which
# must stay 0: the WAL reaches the disk through that one door.
# It also lists the nyquistd flags that no command line under scripts/,
# bench/, .github/ or docs/ passes a value to (an inline `-flag` mention
# in prose is not a setting) — the candidates of the next knob audit —
# and the exported fields of every *Config/*Options struct in the main
# module, the whole settable surface the six-struct count samples, and the
# non-test files that declare a core.RatePolicy: one per estimate→retain
# loop, so a new loop shows up in review. Last, the root package's
# TestSurface lists every declaration and method of the main module that no
# non-test file references, outside its kept table: surface only tests
# reach, to delete or to give a kept line.
# The six counts below have ceilings: the script exits non-zero when one
# is exceeded (CI's size step gates on it). Lower a ceiling when a PR
# lowers the count; the rest is print-only, compared against the previous
# PR's figures in CHANGES.md.
# PR 24 lowered all five to what the script measured (21,944 / 3,475 / 24 /
# 37 / 19 before it): five flags and five config fields nothing set became
# constants, the Archiver's riding stream and the dsp declarations nothing
# called went, and five allow annotations folded into two cold helpers.
# MAX_LOC was then raised by exactly the net 104 lines (21,594 → 21,698)
# that band-limited, droop-compensated reconstruction of tier runs took
# (internal/api/reconstruct.go and dsp.UpsampleSpectrum under it, less
# (*core.StreamEstimator).Reset): nothing else unreferenced was left to
# pay for it. It was raised again by exactly the net 48 lines (→ 21,746)
# that an allocation-free warm ingest path and the nyquistd_heap_bytes
# family took: +22 for estimator-owned emissions and WAL records framed
# in the log's own buffer (their ownership contract documented, the
# test-only Log.Append gone), +26 for the heap family and the labeled
# function gauge under it (GaugeVec.Func).
# Both LoC ceilings then fell to what the script measured (21,746 / 3,471
# before): internal/wal said each thing once — one snapshot reader for
# recovery and the scrub, one options struct, one file lister, one file
# creator, one stats value per type — and the test-only
# (*wal.Durable).Store/Estimator and (*tsdb.DB).Retention went.
# Both were then raised by exactly the net lines (21,625 → 21,781 and
# 3,468 → 3,585) that coding the raw store's open run as it fills took:
# the run, its decoder in the block iterator and the reader's tail, less
# the plain tail, resetTail and encodeTail (tsdb +117), and the
# estimator's live-window count and StateBytes behind the
# nyquistd_estimator_state_bytes gauge (monitor, api +39).
# MAX_LOC was then raised by exactly the net 154 lines (21,781 → 21,935)
# that holding the estimator's window as decimal mantissas took: the
# compact ring, its raises and its widening in core (+105), the leaf
# internal/decimal that core and tsdb now share for their one decimal
# test (+54), less the 36 lines tsdb moved into it (MAX_TSDB_LOC 3,585 →
# 3,549), the wide-window count behind StateBytes (monitor +19), and a
# snapshot that keeps its segments when the directory fsync fails (wal
# +12).
# MAX_LOC was then raised by exactly the net 127 lines (21,935 → 22,062)
# that sizing the estimator's window to its offsets took: one ring of 2-,
# 4- or 8-byte samples with its widening, and the shape's settings moved
# into the shared spectral (core +105), the window counts per width
# behind StateBytes and the probe's one buffer (monitor +22).
# MAX_LOC was then raised by exactly the net 104 lines (22,062 → 22,166)
# that one band-limited kernel for raw and tier runs took. 28 of them are
# the bulk lane's header deadline (api +5) and the nyquistd_series_stale
# gauge (monitor +21, api +2); the other 76 are the kernel, its droop
# filter and the in-place read less the FFT engine they replace
# (api/reconstruct.go +148) and the reconstruct_points family (api +13),
# less UpsampleSpectrum folded back (dsp −7), one fill loop for the three
# interpolators with series.Sorted beside it (series −36), core's one
# downsample body (−22) and one headroom constant (core −5, tsdb −6,
# monitor −7, fleet −7, series +5). MAX_TSDB_LOC fell to the measured
# 3,543.
# MAX_LOC then fell to the measured 22,152: the plan's transform tapers as
# it packs and its inverse half went (dsp −21), less the taper loop the
# estimator keeps for its Periodogram path (core +1) and the SIGKILL and
# served-grid sentences aligned with docs/API.md (wal +2, nyquistd +3,
# api +1).
# MAX_LOC (22,152 → 22,003), MAX_FLAGS (19 → 16) and MAX_CONFIG_FIELDS
# (32 → 28) then fell to the measured values: every option no program set
# became a constant — three nyquistd flags (the serving store's capacities
# and cache budget, now said once in api.ServingStore), four fields of the
# six structs (api.Config.Ingest, MaxQueryPoints and MaxQuerySeries, and
# wal.Options.SegmentBytes) and 35 more across the other config structs
# (fleet −92, core −27, experiments −16, monitor −7, dcsim −4, nyquistd −3,
# api −2, wal +2).
# MAX_LOC (22,003 → 21,803) then fell to the measured value: the seed-era
# StaticPoller and AdaptivePoller went (poller.go, 141 lines); Compare and
# Archiver moved to internal/experiments (monitor −454, experiments +261),
# Compare calling the adaptive sampler and billing the static side itself
# over the whole epochs it measured, with core.SampleRange (core +2) as its
# one fixed-rate loop, and its Comparison carrying the run in place of the
# FinalRate and StaticRate copies; fleet lost the three poller aliases (−5)
# and api the (*Server).Metrics accessor nothing called (−4).
# The ingest fan-out, the parser's exact number conversions and the
# pair-fused transform then paid for their lines, so MAX_LOC fell to the
# measured 21,802 and MAX_TSDB_LOC to the measured 3,536. Added:
# internal/cores (+69), api +102 (parser, feed shares, the bulk lane's
# idle buffer shedding), monitor +34 (Admit and Run), dsp +28 (the fused
# passes); tsdb's share method replaced its loop. Deleted: the nyquist
# and fleet re-exports nothing called (−69, −38), dsp.Autocorrelation and
# core.DownsampleRaw, which only they reached (−38, −20), and methods only
# tests called or nothing did (monitor −21, fleet −9, dsp −12, dcsim −9,
# tsdb −7, core −11).
# MAX_LOC (21,802 → 21,285) and MAX_TSDB_LOC (3,536 → 3,513) then fell to
# the measured values: the scan at the end of this script listed what no
# non-test file reached, and it went — the §6 group estimate
# (multivariate.go, core −186 with Estimator.EstimateSeries,
# StreamEstimator.Seen and AdaptiveSampler.Rate), series.AlignToCommonGrid
# with the Series/Uniform helpers only tests called (series −173 net, +15
# for the Regularize grid bound), dsp.FFT, FrameCutoff and NoisePower (dsp
# −56), facade names nothing called (nyquist −15, fleet −23), the
# test-only accessors (dcsim −27, tsdb −23, report −12, api −6, obs −3),
# and the epoch range check nyquistscan's CSV reader gained (trace +7).
# Parsing a bulk frame on both cores, taking shard groups largest first
# and observing runs by index paid for their lines: api +60 (the windowed
# parse shares, the in-memory body read, less the streaming loop and the
# run buffer), monitor −5 (ObserveRun took in admit and observe), tsdb −8
# (SealAll drains through drainSealed; comments restating the package and
# AppendBatch docs went), dcsim −37 (every Device assembled in rawDevice,
# the band limit pinned and traces sized once), monitorsim −3 (one ingest
# POST helper) and wal −7 (a varint decoded as a zigzagged uvarint).
# MAX_TSDB_LOC fell to the measured 3,505 and MAX_ALLOWS to 13: the HTTP
# body buffer is shed by dropping it, which allocates nothing.
# MAX_LOC (21,285 → 20,969), MAX_TSDB_LOC (3,505 → 3,236) and
# MAX_CONFIG_FIELDS (28 → 27) then fell to the measured values: the
# decoded-block cache no workload could see went with its config field
# (tsdb.Config.CacheBytes), its stats and its seven metric families (tsdb
# −269, api −47).
# MAX_LOC (20,969 → 20,942) then fell to the measured value: the three
# estimate→retain loops stopped classifying the estimator's answer, which
# core.RatePolicy.Feed now reads itself, with RetentionHold folded into the
# policy (core −16, fleet −10, experiments −1 with one append for raw and
# downsampled blocks, monitor ±0).
# MAX_LOC (20,942 → 20,941) then fell to the measured value: one
# poll-rate rule, core.Decision.PollRate with its interval form and the
# policy's standing decision between windows, replaced the stream's advice
# (its alias streak and suggested interval) and the controller's own rule
# and aliased flags (core +20: hold.go +42, stream.go −22; fleet −11); the
# hook, nyquistscan and the facade call it (monitor +2, nyquistscan +1 with
# its unreachable error branch gone, nyquist +5, api +1), and monitorsim
# decodes the daemon's replies into api's own wire types instead of its
# copies of them (−19).
# MAX_LOC (20,941 → 21,013) was then raised by the net 72 lines of ROADMAP
# item 1(a)+(b) and item 11's drift edges. The filesystem seam under
# internal/wal took +24 and was not net-neutral: fs.go +57 (the fileSystem
# interface, its file type and osFS, with all ten os.* calls), durable.go
# −19 (the syncDir variable and Durable.abort out, the test-only Options.fs
# and its default in) and wal.go −14 (Log.abort). The sticky fsync rule
# took +46 (wal.go +37, durable.go +9): the log's own pending buffer in
# place of its bufio.Writer and createFramed, the poisoned segment's
# rotation, one commit for the flusher and synchronous appends, the
# backlog bound, carried records landing below a snapshot boundary, a
# scrub that does not count a poisoned segment's torn tail again, a
# failed snapshot counted whichever caller took it, and the package doc's
# sentence. The drift watch counting its edges took +2
# (monitor). MAX_WAL_OS_CALLS, a sixth ceiling, gates the os.* calls in
# internal/wal outside fs.go at 0.
# MAX_LOC (21,013 → 21,033) was then raised by the net 20 lines of ROADMAP
# item 8(a): the serving hook estimating _total counters on their
# increments. monitor took +20: the counter branch of observeLocked (+7),
# the series' counter flag and its previous reading beside a lastTime held
# as int64 nanoseconds (+4), the metric-name test at creation and its
# import (+2) and the doc (+7). series.Increment replaced series.Diff
# (series −1) and RateFromCounter's loop calls it (dcsim +1).
# MAX_LOC (21,033 → 21,031) then fell to the measured value: a bulk frame
# is read into the pooled ingest batch through the HTTP body's one entry,
# and the connection's payload buffer, its idle shedding and ingestFrame
# went (api −16); a metrics gather takes one stats snapshot per pass in
# place of a 50 ms memo (api −5, obs +6); monitor decides how many stored
# points rewarm a series, one more for a counter (monitor +16, wal −3).
MAX_LOC=21031
MAX_TSDB_LOC=3236
MAX_FLAGS=16
MAX_CONFIG_FIELDS=27
MAX_ALLOWS=13
MAX_WAL_OS_CALLS=0
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
	find "${1:-.}" -name '*.go' ! -name '*_test.go' \
		! -path './tools/*' ! -path './bench/*' ! -path './.bench_build/*'
}

# fields FILE STRUCT — exported fields of one struct ("A, B T" counts two).
fields() {
	awk -v re="^type $2 struct" '
		$0 ~ re { on = 1; next }
		on && /^}/ { exit }
		on && /^\t[A-Z]/ { for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break } }
		END { print n + 0 }' "$1"
}

# allfields FILE... — "S structs, N fields": every *Config/*Options struct
# in the files, its exported fields counted as fields() counts them.
allfields() {
	awk '
		/^type [A-Za-z0-9]*(Config|Options) struct/ { on = 1; s++; next }
		on && /^}/ { on = 0; next }
		on && /^\t[A-Z]/ { for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break } }
		END { print s + 0 " structs, " n + 0 " fields" }' "$@"
}

loc=$(gofiles | xargs cat | wc -l)
tsdbloc=$(gofiles ./internal/tsdb | xargs cat | wc -l)
echo "non-test Go LoC (main module): $loc (ceiling $MAX_LOC)"
echo "non-test Go LoC (internal/tsdb): $tsdbloc (ceiling $MAX_TSDB_LOC)"
flags=$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/nyquistd/main.go)
cfgfields=$((
	$(fields internal/tsdb/tsdb.go Config) + $(fields internal/tsdb/tsdb.go RetentionConfig) +
	$(fields internal/monitor/ingest.go IngestConfig) + $(fields internal/wal/durable.go Options) +
	$(fields internal/api/api.go Config) + $(fields internal/core/stream.go StreamConfig)))
allows=$(gofiles | xargs grep -h '//nyquist:allow-' | wc -l)
echo "nyquistd flags: $flags (ceiling $MAX_FLAGS)"
unset_flags=
for f in $(sed -nE 's/.*flag\.[A-Z][A-Za-z0-9]*\("([^"]+)".*/\1/p' cmd/nyquistd/main.go); do
	grep -rqE -- "(^|[[:space:](\"])-$f(\"|[ =][^ ])" scripts bench .github docs || unset_flags+=" -$f"
done
echo "flags no file under scripts/ bench/ .github/ docs/ sets:${unset_flags:- none}"
echo "config fields (tsdb.Config, tsdb.RetentionConfig, monitor.IngestConfig, wal.Options, api.Config, core.StreamConfig): $cfgfields (ceiling $MAX_CONFIG_FIELDS)"
echo "every *Config/*Options struct in the main module: $(allfields $(gofiles))"
echo "//nyquist:allow-* annotations: $allows (ceiling $MAX_ALLOWS)"
walos=$(gofiles ./internal/wal | grep -v '/fs\.go$' | xargs grep -ohE '\bos\.[A-Z][A-Za-z0-9_]*\(' | wc -l || true)
echo "os.* calls in internal/wal outside its filesystem seam (fs.go): $walos (ceiling $MAX_WAL_OS_CALLS)"
echo "non-test files declaring a core.RatePolicy (one estimate→retain loop each):" \
	$(gofiles | xargs grep -lE '^[[:space:]]*(var[[:space:]]+)?[a-z][A-Za-z0-9_]*[[:space:]]+(\[\])?core\.RatePolicy\b' | sort)
go test ./internal/core -run '^TestStreamStateSize$' -count=1 -v | sed -n 's/.*\(state bytes per warm stream.*\)/estimator \1/p'
go test ./internal/monitor -run '^TestIngestSeriesStateSize$' -count=1 -v | sed -n 's/.*\(hold state bytes per series.*\)/estimator \1/p'
go test ./internal/tsdb -run '^TestSeriesStateBytes$' -count=1 -v | sed -n 's/.*\(state bytes per [a-z]* series.*\)/store \1/p'
go test ./internal/tsdb -run '^TestHighcardStateAccounted$' -count=1 -v | sed -n 's/.*\(highcard state bytes per series.*\)/\1/p'
go test ./internal/api -run '^TestIngestBatchAllocCeiling$' -count=1 -v | sed -n 's/.*\(warm ingest allocs per point.*\)/\1/p'
go test ./internal/api -run '^TestIngestBatchRestBytes$' -count=1 -v | sed -n 's/.*\(pooled ingest batch bytes at rest.*\)/\1/p'
go test ./internal/monitor -run '^TestIngestEstimatorFlapRate$' -count=1 -v | sed -n 's/.*\(held-rate changes per 1,000 clean refreshes.*\)/retention \1/p'
go test . -run '^TestSurface$' -count=1 -v | sed -n 's/.*\(unreferenced declarations: .*\)/\1/p; s/.*unreferenced: /  /p'
if ((loc > MAX_LOC || tsdbloc > MAX_TSDB_LOC || flags > MAX_FLAGS || cfgfields > MAX_CONFIG_FIELDS || allows > MAX_ALLOWS || walos > MAX_WAL_OS_CALLS)); then
	echo "size.sh: a count exceeds its ceiling (see the top of this script)" >&2
	exit 1
fi
