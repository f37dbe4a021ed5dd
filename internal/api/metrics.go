// The server's metric inventory: every nyquistd_* family, registered
// once per Server. Two bridging styles coexist here. Measurements the
// subsystems already keep (tsdb appends, WAL syncs, estimator retunes)
// surface through func metrics that sample the owning layer's stats at
// gather time — the storage and durability packages stay free of any
// obs import, and there is no double bookkeeping to drift. Measurements
// only the HTTP layer can see (request latency, reject reasons, query
// stitch time) are first-class instruments updated on the hot path;
// those children are resolved once here so handlers never pay the
// label-lookup map walk per request.

package api

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// cached holds a stats snapshot for one gather pass, which reads it once
// per family, a dozen times.
type cached[T any] struct {
	reg   *obs.Registry
	fetch func() T
	mu    sync.Mutex
	pass  uint64
	v     T
}

func (c *cached[T]) get() T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.reg.Pass(); p != c.pass {
		c.v, c.pass = c.fetch(), p
	}
	return c.v
}

// serverMetrics holds the hot-path instrument children the handlers
// update directly. Func-metric families are registered but not stored:
// the registry owns them and samples the closures at gather time.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP surface (labeled vecs; per-code children resolved on demand
	// since the code class is only known after the handler ran).
	httpRequests  *obs.CounterVec // handler, code class
	httpLatency   *obs.HistogramVec
	httpBodyBytes *obs.CounterVec
	httpRespBytes *obs.CounterVec
	httpInFlight  *obs.Gauge
	httpPanics    *obs.Counter
	httpWriteErrs *obs.Counter

	// Ingest accounting, flushed once per batch from local tallies.
	ingestAccepted   *obs.Counter
	ingestRejected   *obs.Counter
	ingestEstDropped *obs.Counter
	parseFast        *obs.Counter
	parseFallback    *obs.Counter
	batchLines       *obs.Histogram
	batchBytes       *obs.Histogram

	// Bulk lane (the plain-TCP length-prefixed ingest listener).
	bulkConns  *obs.Gauge
	bulkFrames *obs.Counter
	bulkBytes  *obs.Counter

	rejBadJSON    *obs.Counter
	rejBadShape   *obs.Counter
	rejTooLong    *obs.Counter
	rejOutOfOrder *obs.Counter
	rejTimeRange  *obs.Counter
	rejStoreOther *obs.Counter
	rejReadError  *obs.Counter

	// Read path.
	querySeconds     *obs.Histogram
	queryTiers       *obs.Histogram
	queryThinned     *obs.Counter
	queryClamped     *obs.Counter
	queryMatchSeries *obs.Histogram
	// Reconstructed grid points: band-limited, and the rest by the
	// interpolator that filled them (indexed by series.Interpolation).
	reconBanded *obs.Counter
	reconFilled [3]*obs.Counter

	// Durability: fsync wall time, fed through Server.ObserveWALFsync
	// from the log's group-commit path.
	walFsync *obs.Histogram
}

// queryTierBuckets bound the per-query tier fan-out histogram: a query
// answered from the raw ring touches 1 tier; deep history walks raw
// plus every downsampled tier.
var queryTierBuckets = []float64{0, 1, 2, 3, 4, 8}

// newServerMetrics registers the full inventory on reg. getWAL is
// called at gather time so the WAL family reports zeros before the
// durability layer attaches (and on memory-only servers).
func newServerMetrics(reg *obs.Registry, store *tsdb.DB, est *monitor.IngestEstimator, getWAL func() *wal.Durable, start time.Time) *serverMetrics {
	m := &serverMetrics{reg: reg}

	m.httpRequests = reg.CounterVec("nyquistd_http_requests_total",
		"HTTP requests served, by handler and status class.", "handler", "code")
	m.httpLatency = reg.HistogramVec("nyquistd_http_request_seconds",
		"Wall time per HTTP request, by handler.", obs.LatencyBuckets, "handler")
	m.httpBodyBytes = reg.CounterVec("nyquistd_http_request_body_bytes_total",
		"Request body bytes received, by handler (Content-Length when declared).", "handler")
	m.httpRespBytes = reg.CounterVec("nyquistd_http_response_bytes_total",
		"Response body bytes written, by handler.", "handler")
	m.httpInFlight = reg.Gauge("nyquistd_http_in_flight",
		"HTTP requests currently being served.")
	m.httpPanics = reg.Counter("nyquistd_http_panics_total",
		"Handler panics caught by the recovery middleware.")
	m.httpWriteErrs = reg.Counter("nyquistd_http_write_errors_total",
		"Response encode/write failures (client gone mid-response, or a marshal bug).")

	points := reg.CounterVec("nyquistd_ingest_points_total",
		"Ingested lines by outcome: accepted into the store, rejected, or accepted with the estimator at its series cap.", "result")
	m.ingestAccepted = points.With("accepted")
	m.ingestRejected = points.With("rejected")
	m.ingestEstDropped = points.With("estimator_dropped")
	parse := reg.CounterVec("nyquistd_ingest_parse_total",
		"Ingest lines by parse path: the allocation-free fast parser vs the encoding/json fallback.", "path")
	m.parseFast = parse.With("fast")
	m.parseFallback = parse.With("fallback")
	rejects := reg.CounterVec("nyquistd_ingest_rejects_total",
		"Rejected ingest lines by reason.", "reason")
	m.rejBadJSON = rejects.With("bad_json")
	m.rejBadShape = rejects.With("bad_shape")
	m.rejTooLong = rejects.With("too_long")
	m.rejOutOfOrder = rejects.With("out_of_order")
	m.rejTimeRange = rejects.With("time_range")
	m.rejStoreOther = rejects.With("store_other")
	m.rejReadError = rejects.With("read_error")
	m.batchLines = reg.Histogram("nyquistd_ingest_batch_lines",
		"Non-blank lines per ingest batch.", obs.SizeBuckets)
	m.batchBytes = reg.Histogram("nyquistd_ingest_batch_bytes",
		"Payload bytes consumed per ingest batch (HTTP body or bulk frame), counted once by the ingest core.", obs.SizeBuckets)

	m.bulkConns = reg.Gauge("nyquistd_bulk_connections",
		"Bulk-lane TCP connections currently open.")
	m.bulkFrames = reg.Counter("nyquistd_bulk_frames_total",
		"Length-prefixed batch frames processed on the bulk lane.")
	m.bulkBytes = reg.Counter("nyquistd_bulk_bytes_total",
		"Payload bytes received on the bulk lane (frame bodies, excluding length prefixes).")

	m.querySeconds = reg.Histogram("nyquistd_query_seconds",
		"Tier-stitched range-read wall time (store read + stitch, excluding JSON encoding).", obs.LatencyBuckets)
	m.queryTiers = reg.Histogram("nyquistd_query_tiers",
		"Storage tiers contributing per query (1 = raw ring only).", queryTierBuckets)
	m.queryThinned = reg.Counter("nyquistd_query_thinned_total",
		"Queries whose stitched result exceeded the point budget and was stride-decimated.")
	m.queryClamped = reg.Counter("nyquistd_query_clamped_total",
		"Queries whose max_points exceeded the server cap and were clamped to it.")
	m.queryMatchSeries = reg.Histogram("nyquistd_query_match_series",
		"Series answered per ?match= fan-in query.", obs.SizeBuckets)
	recon := reg.CounterVec("nyquistd_query_reconstruct_points_total",
		"Reconstructed grid points served, by how each was computed: band-limited inside a run of samples (reconstruct=auto), or by the linear, nearest or previous interpolator.", "method")
	m.reconBanded = recon.With("bandlimited")
	for ip := range m.reconFilled {
		m.reconFilled[ip] = recon.With(series.Interpolation(ip).String())
	}

	m.walFsync = reg.Histogram("nyquistd_wal_fsync_seconds",
		"WAL group-commit fsync wall time.", obs.LatencyBuckets)

	// ---- func-metric bridges ----

	ts := &cached[tsdb.Stats]{reg: reg, fetch: store.Stats}
	reg.GaugeFunc("nyquistd_tsdb_series", "Stored series.",
		func() float64 { return float64(ts.get().Series) })
	reg.GaugeFunc("nyquistd_tsdb_raw_points", "Full-resolution samples currently retained.",
		func() float64 { return float64(ts.get().RawPoints) })
	reg.GaugeFunc("nyquistd_tsdb_tier_buckets", "Downsampled tier buckets currently retained.",
		func() float64 { return float64(ts.get().Buckets) })
	reg.CounterFunc("nyquistd_tsdb_appends_total", "Points ever appended to the store.",
		func() float64 { return float64(ts.get().Appends) })
	reg.CounterFunc("nyquistd_tsdb_compacted_total", "Raw samples cascaded into downsampled tiers.",
		func() float64 { return float64(ts.get().Compacted) })
	reg.CounterFunc("nyquistd_tsdb_dropped_total", "Samples aged out of the last tier (the only data the engine forgets).",
		func() float64 { return float64(ts.get().Dropped) })
	reg.CounterFunc("nyquistd_tsdb_sealed_blocks_total", "Raw blocks sealed (compressed) over the store's lifetime.",
		func() float64 { return float64(ts.get().SealedBlocks) })
	reg.GaugeFunc("nyquistd_tsdb_compressed_bytes", "Sealed block payload bytes currently held (raw + tier).",
		func() float64 { return float64(ts.get().CompressedBytes) })
	reg.GaugeFunc("nyquistd_tsdb_compressed_entries", "Points and buckets held in sealed blocks (raw + tier).",
		func() float64 { return float64(ts.get().CompressedEntries) })
	reg.GaugeFunc("nyquistd_tsdb_raw_compressed_bytes", "Sealed raw-block payload bytes currently held.",
		func() float64 { return float64(ts.get().RawCompressedBytes) })
	reg.GaugeFunc("nyquistd_tsdb_raw_compressed_entries", "Points held in sealed raw blocks.",
		func() float64 { return float64(ts.get().RawCompressedEntries) })
	reg.GaugeFunc("nyquistd_tsdb_tier_compressed_bytes", "Sealed tier-block payload bytes currently held.",
		func() float64 { return float64(ts.get().TierCompressedBytes) })
	reg.GaugeFunc("nyquistd_tsdb_tier_compressed_entries", "Buckets held in sealed tier blocks.",
		func() float64 { return float64(ts.get().TierCompressedEntries) })
	reg.GaugeFunc("nyquistd_tsdb_open_tail_bytes", "Bytes the open blocks hold allocated: the raw runs' buffers (unsealed points, compressed as they arrive), staged tier buckets and the tiers' open compressed payloads.",
		func() float64 { return float64(ts.get().OpenTailBytes) })

	reg.GaugeFunc("nyquistd_estimator_series", "Series with a live estimator window.",
		func() float64 { return float64(est.Len()) })
	reg.GaugeFunc("nyquistd_estimator_state_bytes", "Bytes the estimator holds for its series, from counts: every series' hook state (retention hold included) and each live analysis window's header and ring: 2 or 4 bytes a sample while the series' readings are decimals whose offsets from its first reading fit 16 or 32 bits, 8 once one does not.",
		func() float64 { return float64(est.StateBytes()) })
	reg.CounterFunc("nyquistd_estimator_probes_total", "Interval probes completed (first lock per series, plus re-probes that locked).",
		func() float64 { return float64(est.Probes()) })
	reg.CounterFunc("nyquistd_estimator_reprobes_total", "Re-probes triggered by interval drift past the tolerance band.",
		func() float64 { return float64(est.Reprobes()) })
	reg.CounterFunc("nyquistd_estimator_retunes_total", "Retention retunes applied after a clean estimate streak.",
		func() float64 { return float64(est.Retunes()) })
	reg.CounterFunc("nyquistd_estimator_held_refreshes_total", "Clean estimate refreshes below the rate retention is held at, which changed nothing.",
		func() float64 { return float64(est.HeldRefreshes()) })
	reg.CounterFunc("nyquistd_estimator_aliased_refreshes_total", "Estimate refreshes rejected as aliased/unstable (clean streak reset).",
		func() float64 { return float64(est.AliasedRefreshes()) })
	reg.CounterFunc("nyquistd_estimator_evictions_total", "Idle series evicted at the estimator's series cap.",
		func() float64 { return float64(est.Evicted()) })
	reg.GaugeFunc("nyquistd_series_stale", "Estimated series whose newest point is older than 4 locked poll intervals by the daemon's clock: series their source stopped sending, found from the cadence the estimator already knows.",
		func() float64 { return float64(est.Stale(time.Now())) })
	reg.CounterFunc("nyquistd_estimator_rejected_total", "Observations dropped because the series cap held and nothing was idle.",
		func() float64 { return float64(est.Rejected()) })

	ws := &cached[wal.Stats]{reg: reg, fetch: func() wal.Stats {
		if d := getWAL(); d != nil {
			return d.Stats()
		}
		return wal.Stats{}
	}}
	reg.GaugeFunc("nyquistd_wal_enabled", "1 when the durability layer is attached.",
		func() float64 {
			if getWAL() != nil {
				return 1
			}
			return 0
		})
	reg.CounterFunc("nyquistd_wal_records_total", "Records appended to the write-ahead log this session.",
		func() float64 { return float64(ws.get().Log.Records) })
	reg.GaugeFunc("nyquistd_wal_bytes", "Bytes across live WAL segments.",
		func() float64 { return float64(ws.get().Log.Bytes) })
	reg.GaugeFunc("nyquistd_wal_segments", "Live WAL segment files.",
		func() float64 { return float64(ws.get().Log.Segments) })
	reg.CounterFunc("nyquistd_wal_syncs_total", "WAL group commits (fsyncs) this session.",
		func() float64 { return float64(ws.get().Log.Syncs) })
	reg.CounterFunc("nyquistd_wal_rotations_total", "WAL segment rotations this session (size-triggered plus snapshot boundaries).",
		func() float64 { return float64(ws.get().Log.Rotations) })
	reg.CounterFunc("nyquistd_wal_errors_total", "WAL write/sync/scrub errors this session; non-zero means durability is degraded.",
		func() float64 { return float64(ws.get().Log.Errors) })
	reg.GaugeFunc("nyquistd_wal_unsynced_age_seconds", "Age of the oldest WAL append no fsync covers yet (0 = all durable); growth past the group-commit interval is acked-but-not-durable lag.",
		func() float64 { return ws.get().Log.UnsyncedAge.Seconds() })
	reg.GaugeFunc("nyquistd_wal_snapshot_age_seconds", "Seconds since the newest block snapshot this session (0 before the first): the WAL tail a restart would replay grows with it.",
		func() float64 {
			if last := ws.get().LastSnapshot; !last.IsZero() {
				return time.Since(last).Seconds()
			}
			return 0
		})
	reg.CounterFunc("nyquistd_wal_snapshots_total", "Block snapshots taken this session.",
		func() float64 { return float64(ws.get().Snapshots) })
	reg.CounterFunc("nyquistd_wal_snapshot_errors_total", "Failed snapshot attempts this session.",
		func() float64 { return float64(ws.get().SnapshotErrors) })
	reg.CounterFunc("nyquistd_wal_scrub_runs_total", "Background CRC scrub passes this session.",
		func() float64 { return float64(ws.get().ScrubRuns) })
	reg.CounterFunc("nyquistd_wal_scrub_files_total", "Files read by scrub passes this session.",
		func() float64 { return float64(ws.get().ScrubFiles) })
	reg.CounterFunc("nyquistd_wal_scrub_corrupt_total", "Files that failed a scrub checksum; non-zero means a durable copy is rotting.",
		func() float64 { return float64(ws.get().ScrubCorrupt) })
	reg.GaugeFunc("nyquistd_wal_replay_points", "Points recovered into the store at boot.",
		func() float64 { return float64(ws.get().Replay.Points) })
	reg.GaugeFunc("nyquistd_wal_replay_skipped_points", "Replayed points skipped as snapshot-covered duplicates or out of order.",
		func() float64 { return float64(ws.get().Replay.SkippedPoints) })

	reg.Gauge("nyquistd_up", "Always 1 while the process serves; the self-scrape loop turns this into a liveness series.").Set(1)
	reg.GaugeFunc("nyquistd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("nyquistd_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// runtime/metrics, unlike runtime.ReadMemStats, does not stop the world.
	hs := &cached[[]metrics.Sample]{reg: reg, fetch: func() []metrics.Sample {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		metrics.Read(s)
		return s
	}}
	heap := reg.GaugeVec("nyquistd_heap_bytes", "Go heap bytes by class: objects is live objects plus garbage not yet swept, unused is span space reserved for objects but holding none — the fragmentation short-lived garbage leaves beside retained data.", "class")
	for i, class := range []string{"objects", "unused"} {
		heap.Func(func() float64 { return float64(hs.get()[i].Value.Uint64()) }, class)
	}

	return m
}
