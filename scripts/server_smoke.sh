#!/usr/bin/env bash
# server_smoke.sh — the CI serving-path smoke test.
#
# Phase 1 (memory-only): builds the real binaries, starts nyquistd on a
# random port, drives it with monitorsim's load-generator mode (a
# synthetic known-Nyquist diurnal series over HTTP; the generator itself
# asserts the estimate endpoint converges near ground truth), then sends
# SIGTERM and requires a clean graceful shutdown (exit 0 with a final
# store report).
#
# Phase 2 (durability): starts nyquistd with -data-dir, pushes the same
# load, SIGKILLs the daemon — no drain, no seal, the real crash — then
# restarts it on the same data dir and requires byte-identical
# /api/v1/query results, a matching /api/v1/estimate Nyquist rate, and
# WAL replay accounting in /api/v1/stats.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon=
trap '[ -z "$daemon" ] || kill "$daemon" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/nyquistd" ./cmd/nyquistd
go build -o "$workdir/monitorsim" ./cmd/monitorsim

# wait_port LOGFILE: echoes the port once the daemon reports it.
wait_port() {
    local log=$1 port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "$log" | head -1)
        [ -n "$port" ] && { echo "$port"; return 0; }
        sleep 0.1
    done
    echo "server_smoke: nyquistd never reported its port" >&2
    cat "$log" >&2
    return 1
}

# wait_ready PORT: blocks until /readyz answers 200. The listener binds
# before WAL replay, so a durable daemon can briefly 503 its data
# endpoints after the port is up — that window is exactly what /readyz
# exists to cover.
wait_ready() {
    local p=$1
    for _ in $(seq 1 100); do
        if curl -sf "http://127.0.0.1:$p/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "server_smoke: nyquistd never became ready" >&2
    return 1
}

# start_daemon LOGFILE ARGS...: starts nyquistd with a bind retry (a
# stale port or slow teardown must not flake the job); sets $daemon and
# $port.
start_daemon() {
    local log=$1 attempt
    shift
    for attempt in 1 2 3; do
        "$workdir/nyquistd" "$@" >"$log" 2>&1 &
        daemon=$!
        if port=$(wait_port "$log"); then
            return 0
        fi
        kill "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
        echo "server_smoke: start attempt $attempt failed, retrying" >&2
    done
    echo "server_smoke: nyquistd failed to start after 3 attempts" >&2
    cat "$log" >&2
    return 1
}

# A value the daemon would silently replace is a usage error: a window
# no estimator accepts is not a daemon that stores points and never
# estimates them, and a mistyped bound is not a different bound (a
# negative series cap would be none, a zero body limit 8 MiB, a negative
# shard count 16). Each case is "flag value|expected message".
for bad in "window 15|-window must be at least 16" \
    "shards -3|-shards must be positive" \
    "max-series -1|-max-series must be 0 (unbounded) or positive" \
    "max-body 0|-max-body must be positive" \
    "max-body -5|-max-body must be positive"; do
    args=${bad%%|*}
    want=${bad#*|}
    rc=0
    # $args is the flag name and its value, split on purpose.
    "$workdir/nyquistd" -addr 127.0.0.1:0 -$args >"$workdir/badflag.log" 2>&1 || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -qF -- "$want" "$workdir/badflag.log"; then
        echo "server_smoke: nyquistd -$args exited $rc, want 2 with \"$want\"" >&2
        cat "$workdir/badflag.log" >&2
        exit 1
    fi
done

log="$workdir/nyquistd.log"
start_daemon "$log" -addr 127.0.0.1:0 -bulk-addr 127.0.0.1:0
echo "server_smoke: nyquistd up on port $port"

# The load generator exits non-zero when the server's estimate misses
# the diurnal ground truth — that failure fails the job via set -e.
"$workdir/monitorsim" -push "http://127.0.0.1:$port"

# Bulk lane: the same parse/append core over the plain-TCP
# length-prefixed lane. The generator asserts exact accepted+rejected
# accounting frame by frame and a sustained throughput floor — a lane
# that silently drops frames or crawls fails the job.
bulk=$(sed -n 's/.*bulk lane on \(.*\)$/\1/p' "$log" | head -1)
if [ -z "$bulk" ]; then
    echo "server_smoke: nyquistd never reported its bulk lane" >&2
    cat "$log" >&2
    exit 1
fi
"$workdir/monitorsim" -push-bulk "$bulk" -push-min-rate 25000

curl -sf "http://127.0.0.1:$port/healthz" >/dev/null
curl -sf "http://127.0.0.1:$port/readyz" >/dev/null
curl -sf "http://127.0.0.1:$port/api/v1/stats" | tee "$workdir/stats.json"
echo

# Dashboard read path: one ?match= pull fans across the series family and
# reconstructs onto the stored 675 s grid. On-grid linear reconstruction
# must reproduce the stored samples exactly — same timestamps, same
# values as the raw single-series query.
curl -sf "http://127.0.0.1:$port/api/v1/query?series=sim%2Fdiurnal%2Fgauge&max_points=100000" >"$workdir/raw.json"
curl -sf "http://127.0.0.1:$port/api/v1/query?match=sim%2F*&reconstruct=linear&step=675&max_points=100000" >"$workdir/recon.json"
python3 - "$workdir/raw.json" "$workdir/recon.json" <<'PY'
import json, sys
raw = json.load(open(sys.argv[1]))
mr = json.load(open(sys.argv[2]))
assert mr["matches"] == 1, f"match pull answered {mr['matches']} series, want 1"
r = mr["results"][0]
assert r.get("reconstruct") == "linear", f"reconstruct={r.get('reconstruct')!r}"
assert r.get("step_seconds") == 675, f"step_seconds={r.get('step_seconds')}"
pts, rpts = raw["points"], r["points"]
assert len(rpts) == len(pts) > 0, f"{len(rpts)} reconstructed vs {len(pts)} raw points"
for a, b in zip(pts, rpts):
    assert a["ts"] == b["ts"], f"grid drifted: {a['ts']} vs {b['ts']}"
    assert abs(a["value"] - b["value"]) < 1e-9, f"on-grid value changed at {a['ts']}: {a['value']} vs {b['value']}"
print(f"server_smoke: reconstructed ?match= pull OK ({len(rpts)} points on the 675 s grid)")
PY

# Live /metrics scrape: the exposition must parse (every non-comment
# line is NAME[{LABELS}] VALUE) and the core families must be present
# with the traffic just pushed accounted for.
curl -sf "http://127.0.0.1:$port/metrics" >"$workdir/metrics.txt"
bad=$(grep -vE '^(#|$)' "$workdir/metrics.txt" \
    | grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$' || true)
if [ "$bad" -ne 0 ]; then
    echo "server_smoke: $bad malformed exposition lines in /metrics" >&2
    grep -vE '^(#|$)' "$workdir/metrics.txt" \
        | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$' | head -5 >&2
    exit 1
fi
for fam in nyquistd_http_requests_total nyquistd_http_request_seconds \
    nyquistd_ingest_points_total nyquistd_ingest_parse_total \
    nyquistd_query_seconds nyquistd_tsdb_appends_total \
    nyquistd_tsdb_series nyquistd_wal_enabled nyquistd_wal_fsync_seconds \
    nyquistd_estimator_series nyquistd_estimator_probes_total nyquistd_up \
    nyquistd_bulk_frames_total nyquistd_bulk_bytes_total \
    nyquistd_bulk_connections nyquistd_ingest_batch_bytes \
    nyquistd_heap_bytes nyquistd_query_reconstruct_points_total \
    nyquistd_series_stale; do
    grep -q "^# TYPE $fam " "$workdir/metrics.txt" || {
        echo "server_smoke: /metrics missing family $fam" >&2; exit 1; }
done
accepted=$(sed -n 's/^nyquistd_ingest_points_total{result="accepted"} \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
if [ -z "$accepted" ] || [ "$accepted" -eq 0 ]; then
    echo "server_smoke: /metrics did not account for the pushed points (accepted=$accepted)" >&2
    exit 1
fi
echo "server_smoke: /metrics clean ($(grep -c '^# TYPE' "$workdir/metrics.txt") families, $accepted accepted points)"

kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "server_smoke: nyquistd exited $rc on SIGTERM, want a clean 0" >&2
    cat "$log" >&2
    exit 1
fi
grep -q "shutting down" "$log" || { echo "server_smoke: no graceful-shutdown line in the log" >&2; cat "$log" >&2; exit 1; }
echo "server_smoke: PASS phase 1 (clean shutdown)"

# ---------------------------------------------------------------------
# Phase 2: kill-and-restart durability.
datadir="$workdir/data"
dlog="$workdir/nyquistd-durable.log"
start_daemon "$dlog" -addr 127.0.0.1:0 -data-dir "$datadir" \
    -fsync-every 2ms -state-every 100ms
wait_ready "$port"
echo "server_smoke: durable nyquistd up on port $port (data dir $datadir)"

"$workdir/monitorsim" -push "http://127.0.0.1:$port"

# Let the group commit and a state-record sweep land, then capture the
# pre-crash answers. 1024 pushed samples = 8 sealed 128-point blocks, so
# the WAL holds every point.
sleep 0.5
series="sim%2Fdiurnal%2Fgauge"
curl -sf "http://127.0.0.1:$port/api/v1/query?series=$series&max_points=100000" >"$workdir/query_before.json"
curl -sf "http://127.0.0.1:$port/api/v1/estimate?series=$series" >"$workdir/est_before.json"

kill -KILL "$daemon"
wait "$daemon" 2>/dev/null || true
echo "server_smoke: SIGKILLed the durable daemon mid-flight"

start_daemon "$dlog.2" -addr 127.0.0.1:0 -data-dir "$datadir" \
    -fsync-every 2ms -state-every 100ms -self-scrape 50ms
wait_ready "$port"
grep -q "recovered $datadir" "$dlog.2" || { echo "server_smoke: no recovery line after restart" >&2; cat "$dlog.2" >&2; exit 1; }
echo "server_smoke: restarted on port $port: $(grep 'recovered' "$dlog.2")"

curl -sf "http://127.0.0.1:$port/api/v1/query?series=$series&max_points=100000" >"$workdir/query_after.json"
curl -sf "http://127.0.0.1:$port/api/v1/estimate?series=$series" >"$workdir/est_after.json"
curl -sf "http://127.0.0.1:$port/api/v1/stats" >"$workdir/stats_after.json"

if ! cmp -s "$workdir/query_before.json" "$workdir/query_after.json"; then
    echo "server_smoke: query results differ across the crash" >&2
    diff <(head -c 2000 "$workdir/query_before.json") <(head -c 2000 "$workdir/query_after.json") >&2 || true
    exit 1
fi
echo "server_smoke: query results byte-identical across SIGKILL"

nyq() { sed -n 's/.*"nyquist_hz":\([0-9.e+-]*\).*/\1/p' "$1"; }
before=$(nyq "$workdir/est_before.json")
after=$(nyq "$workdir/est_after.json")
awk -v a="$before" -v b="$after" 'BEGIN {
    if (a <= 0 || b <= 0) { print "server_smoke: missing nyquist_hz (before=" a ", after=" b ")"; exit 1 }
    rel = (a > b ? a - b : b - a) / a
    if (rel > 1e-6) { print "server_smoke: estimate drifted across restart: " a " -> " b; exit 1 }
}' || exit 1
echo "server_smoke: estimate survived the crash ($before Hz)"

# The rewarmed window ends on the same newest sample, so a recovered
# series must stamp its estimate with the same updated_at — not drop it.
upd() { sed -n 's/.*"updated_at":"\([^"]*\)".*/\1/p' "$1"; }
if [ -z "$(upd "$workdir/est_after.json")" ] || [ "$(upd "$workdir/est_before.json")" != "$(upd "$workdir/est_after.json")" ]; then
    echo "server_smoke: updated_at changed across restart: '$(upd "$workdir/est_before.json")' -> '$(upd "$workdir/est_after.json")'" >&2
    exit 1
fi
echo "server_smoke: updated_at survived the crash ($(upd "$workdir/est_after.json"))"

# The durability lag gauges: both families on /metrics, and — every
# signal being a series here — both stored by the self-scrape loop.
curl -sf "http://127.0.0.1:$port/metrics" >"$workdir/metrics_durable.txt"
for fam in nyquistd_wal_unsynced_age_seconds nyquistd_wal_snapshot_age_seconds; do
    grep -q "^# TYPE $fam gauge" "$workdir/metrics_durable.txt" || {
        echo "server_smoke: durable /metrics missing gauge $fam" >&2; exit 1; }
    for _ in $(seq 1 50); do
        # A 404 until the first self-scrape pass lands is a retry, not a failure.
        n=$(curl -sf "http://127.0.0.1:$port/api/v1/query?series=$fam" | grep -o '"ts":' | wc -l || true)
        [ "$n" -ge 3 ] && break
        sleep 0.1
    done
    [ "$n" -ge 3 ] || { echo "server_smoke: self-scrape stored $n samples of $fam, want >= 3" >&2; exit 1; }
done
echo "server_smoke: WAL lag gauges exported and self-scraped as series"
# Heap fragmentation is a stored series too (id nyquistd_heap_bytes{class="unused"}).
for _ in $(seq 1 50); do
    n=$(curl -sf "http://127.0.0.1:$port/api/v1/query?series=nyquistd_heap_bytes%7Bclass%3D%22unused%22%7D" | grep -o '"ts":' | wc -l || true)
    [ "$n" -ge 3 ] && break
    sleep 0.1
done
[ "$n" -ge 3 ] || { echo "server_smoke: self-scrape stored $n samples of nyquistd_heap_bytes{class=\"unused\"}, want >= 3" >&2; exit 1; }

# A series that stops: 16 polls 100 ms apart up to now lock its interval,
# then nothing more arrives. Four intervals later nyquistd_series_stale
# counts it — on /metrics and in its own self-scraped series.
stale() { curl -sf "http://127.0.0.1:$port/metrics" | sed -n 's/^nyquistd_series_stale \([0-9]*\)$/\1/p'; }
before=$(stale)
python3 -c '
import json, time
now = time.time()
for i in range(16):
    print(json.dumps({"series": "smoke/stopped", "ts": round(now - 1.5 + 0.1 * i, 3), "value": i % 4}))
' | curl -sf -X POST --data-binary @- "http://127.0.0.1:$port/api/v1/ingest" >/dev/null
for _ in $(seq 1 50); do
    after=$(stale)
    [ "$after" -gt "$before" ] && break
    sleep 0.1
done
[ "$after" -gt "$before" ] || { echo "server_smoke: nyquistd_series_stale $before -> $after after a series stopped, want it to count the series" >&2; exit 1; }
for _ in $(seq 1 50); do
    last=$(curl -sf "http://127.0.0.1:$port/api/v1/query?series=nyquistd_series_stale" | grep -o '"value":[0-9.e+-]*' | tail -1 | cut -d: -f2 || true)
    awk -v v="${last:-0}" -v a="$after" 'BEGIN { exit !(v >= a) }' && break
    sleep 0.1
done
awk -v v="${last:-0}" -v a="$after" 'BEGIN { exit !(v >= a) }' || { echo "server_smoke: self-scraped nyquistd_series_stale reads ${last:-nothing}, want >= $after" >&2; exit 1; }
echo "server_smoke: a stopped series is counted stale ($before -> $after), on /metrics and self-scraped"

grep -q '"wal":{' "$workdir/stats_after.json" || { echo "server_smoke: stats missing wal section" >&2; cat "$workdir/stats_after.json" >&2; exit 1; }
grep -q '"points":1024' "$workdir/stats_after.json" || { echo "server_smoke: replay accounting missing 1024 points" >&2; cat "$workdir/stats_after.json" >&2; exit 1; }

kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "server_smoke: durable nyquistd exited $rc on SIGTERM, want a clean 0" >&2
    cat "$dlog.2" >&2
    exit 1
fi
grep -q "WAL sealed and committed" "$dlog.2" || { echo "server_smoke: no WAL-seal line on graceful shutdown" >&2; cat "$dlog.2" >&2; exit 1; }
echo "server_smoke: PASS (clean shutdown + crash recovery)"
