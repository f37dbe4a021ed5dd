// The wire format: JSON shapes for every endpoint, kept apart from the
// handlers so docs/API.md has a single place to mirror. Field names are
// snake_case; times are RFC3339Nano strings on the way out and RFC3339
// or Unix seconds on the way in; durations and widths are fractional
// seconds; rates are hertz.

package api

import (
	"encoding/json"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// IngestLine is one POST /api/v1/ingest line: a JSON object per point.
// TS accepts an RFC3339(Nano) string or fractional Unix seconds; numeric
// timestamps are parsed decimally (not through float64), so integer- and
// millisecond-precision epochs stay exact — off-grid nanosecond noise
// would poison the store's delta-of-delta timestamp compression.
type IngestLine struct {
	Series string          `json:"series"`
	TS     json.RawMessage `json:"ts"`
	Value  *float64        `json:"value"`
}

// IngestResponse summarizes a batch: how many lines landed, how many
// were rejected (malformed, out of order, or otherwise refused by the
// store — with the first few reasons), and how many distinct series the
// batch touched. A line is counted Accepted only when its point actually
// landed in the store.
type IngestResponse struct {
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
	Series   int           `json:"series"`
	Errors   []IngestError `json:"errors,omitempty"`
	// EstimatorDropped counts accepted points that were stored but not
	// fed to the estimate-on-ingest hook because its MaxSeries cap was
	// hit (the hostile-cardinality bound): such series get no estimates
	// or retention retuning until cardinality drops.
	EstimatorDropped int `json:"estimator_dropped,omitempty"`
}

// IngestError locates one rejected line.
type IngestError struct {
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

// maxIngestErrors bounds the per-batch error detail.
const maxIngestErrors = 5

func (r *IngestResponse) reject(line int, reason string) {
	r.Rejected++
	if len(r.Errors) < maxIngestErrors {
		r.Errors = append(r.Errors, IngestError{Line: line, Reason: reason})
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// QueryResponse is a tier-stitched range read. Points from downsampled
// tiers carry their bucket's grid start time and mean value; Aggregates
// holds those buckets' full min/max/mean summaries.
type QueryResponse struct {
	Series string      `json:"series"`
	Points []PointJSON `json:"points"`
	// Tiers lists each storage tier that contributed (0 = raw samples,
	// k ≥ 1 = the k-th downsampled tier), in read order.
	Tiers      []TierSliceJSON `json:"tiers,omitempty"`
	Aggregates []AggPointJSON  `json:"aggregates,omitempty"`
	// Thinned reports the stitched result exceeded the point budget and
	// was stride-decimated down to it.
	Thinned bool `json:"thinned"`
	// Reconstruct and StepSeconds report server-side reconstruction:
	// when present, Points is the signal resampled onto a uniform grid
	// with this policy and pitch (auto reports what it resolved to:
	// "bandlimited" when it band-limited a raw or bucket run, else its
	// interpolation).
	Reconstruct string  `json:"reconstruct,omitempty"`
	StepSeconds float64 `json:"step_seconds,omitempty"`
	// Clamped reports the response honors a smaller point budget than the
	// client asked for: max_points exceeded the server cap, or the
	// requested reconstruction grid was coarsened to fit the budget.
	Clamped bool `json:"clamped,omitempty"`
}

// MatchResponse is a multi-series fan-in read: one QueryResponse per
// matched series, sorted by id, sharing one point budget.
type MatchResponse struct {
	// Match echoes the pattern.
	Match string `json:"match"`
	// Matches is how many series matched before the series cap; when
	// Truncated, only the lexicographically smallest ids were answered.
	Matches   int  `json:"matches"`
	Truncated bool `json:"truncated,omitempty"`
	// Clamped mirrors QueryResponse.Clamped at the request level.
	Clamped bool            `json:"clamped,omitempty"`
	Results []QueryResponse `json:"results"`
}

// PointJSON is one sample on the wire.
type PointJSON struct {
	TS    string  `json:"ts"`
	Value float64 `json:"value"`
}

// TierSliceJSON records one tier's contribution to a query.
type TierSliceJSON struct {
	Tier         int     `json:"tier"`
	WidthSeconds float64 `json:"width_seconds,omitempty"`
	Points       int     `json:"points"`
}

// AggPointJSON is one bucket summary on the wire.
type AggPointJSON struct {
	TS    string  `json:"ts"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int64   `json:"count"`
}

// queryResponseFrom renders res with pts as its points: res.Points
// themselves, or the grid reconstructed from them.
func queryResponseFrom(res *tsdb.QueryResult, pts []series.Point) QueryResponse {
	out := QueryResponse{Series: res.ID, Points: make([]PointJSON, 0, len(pts)), Thinned: res.Thinned}
	for _, p := range pts {
		out.Points = append(out.Points, PointJSON{TS: wireTime(p.Time), Value: p.Value})
	}
	for _, t := range res.Tiers {
		out.Tiers = append(out.Tiers, TierSliceJSON{Tier: t.Tier, WidthSeconds: t.Width.Seconds(), Points: t.Points})
	}
	for _, a := range res.Aggregates {
		out.Aggregates = append(out.Aggregates, AggPointJSON{
			TS: wireTime(a.Time), Min: a.Min, Max: a.Max, Mean: a.Mean, Count: a.Count,
		})
	}
	return out
}

// EstimateResponse is the live per-series estimate and poll advice.
type EstimateResponse struct {
	Series  string `json:"series"`
	Samples int64  `json:"samples"`
	// IntervalSeconds is the locked poll interval (0 while the first
	// few points still probe it).
	IntervalSeconds float64 `json:"interval_seconds"`
	// Warm reports a full analysis window has been seen; the estimate
	// fields are meaningful only when true.
	Warm bool `json:"warm"`
	// NyquistHz is the latest trusted (clean-streak) estimate, 0 = none.
	NyquistHz float64 `json:"nyquist_hz"`
	// SuggestedIntervalSeconds is the sweet-spot poll interval, never
	// shorter than IntervalSeconds but half it while AliasStreak ≥ 2.
	SuggestedIntervalSeconds float64 `json:"suggested_interval_seconds"`
	// Aliased/AliasStreak report the aliasing verdict of the newest
	// window and how many consecutive refreshes carried it.
	Aliased     bool `json:"aliased"`
	AliasStreak int  `json:"alias_streak"`
	// EnergyCaptured is the spectral energy fraction below the cut-off.
	EnergyCaptured float64 `json:"energy_captured"`
	// RetentionNyquistHz is the rate the store's retention is currently
	// tuned to: the highest trusted estimate of the last window turnover
	// (HoldTurnover refreshes). It rises with NyquistHz at once and
	// follows it down only after HoldTurnover lower estimates in a row;
	// HeldRefreshes is how many of those the current wait has seen.
	RetentionNyquistHz float64 `json:"retention_nyquist_hz"`
	HeldRefreshes      int     `json:"held_refreshes"`
	HoldTurnover       int     `json:"hold_turnover"`
	// UpdatedAt stamps the newest sample of the last estimate refresh.
	UpdatedAt string `json:"updated_at,omitempty"`
	// Reprobes counts poll-interval re-locks after sustained gap drift.
	Reprobes int `json:"reprobes"`
}

func estimateResponseFrom(adv monitor.IngestAdvice, retentionHz float64) EstimateResponse {
	out := EstimateResponse{
		Series:                   adv.Series,
		Samples:                  adv.Samples,
		IntervalSeconds:          adv.Interval.Seconds(),
		Warm:                     adv.Warm,
		NyquistHz:                adv.NyquistRate,
		SuggestedIntervalSeconds: adv.SuggestedInterval.Seconds(),
		Aliased:                  adv.Aliased,
		AliasStreak:              adv.AliasStreak,
		EnergyCaptured:           adv.EnergyCaptured,
		RetentionNyquistHz:       retentionHz,
		HeldRefreshes:            adv.HeldRefreshes,
		HoldTurnover:             adv.HoldTurnover,
		Reprobes:                 adv.Reprobes,
	}
	if !adv.UpdatedAt.IsZero() {
		out.UpdatedAt = wireTime(adv.UpdatedAt)
	}
	return out
}

// SeriesResponse inventories the stored series.
type SeriesResponse struct {
	Series []SeriesEntry `json:"series"`
}

// SeriesEntry is one series' retention state.
type SeriesEntry struct {
	Series    string  `json:"series"`
	NyquistHz float64 `json:"nyquist_hz"`
	Appends   int64   `json:"appends"`
	RawPoints int     `json:"raw_points"`
	Compacted int64   `json:"compacted"`
	Dropped   int64   `json:"dropped"`
	// CompressedBytes is the sealed Gorilla payload for this series.
	CompressedBytes int64      `json:"compressed_bytes"`
	RawOldest       string     `json:"raw_oldest,omitempty"`
	RawNewest       string     `json:"raw_newest,omitempty"`
	Tiers           []TierJSON `json:"tiers,omitempty"`
}

// TierJSON is one retention tier's state.
type TierJSON struct {
	WidthSeconds float64 `json:"width_seconds"`
	Buckets      int     `json:"buckets"`
	Samples      int64   `json:"samples"`
	Oldest       string  `json:"oldest,omitempty"`
	Newest       string  `json:"newest,omitempty"`
}

func seriesEntryFrom(st tsdb.SeriesStats) SeriesEntry {
	e := SeriesEntry{
		Series:          st.ID,
		NyquistHz:       st.NyquistRate,
		Appends:         st.Appends,
		RawPoints:       st.RawPoints,
		Compacted:       st.Compacted,
		Dropped:         st.Dropped,
		CompressedBytes: st.CompressedBytes,
	}
	if !st.RawOldest.IsZero() {
		e.RawOldest = wireTime(st.RawOldest)
		e.RawNewest = wireTime(st.RawNewest)
	}
	for _, t := range st.Tiers {
		tj := TierJSON{WidthSeconds: t.Width.Seconds(), Buckets: t.Buckets, Samples: t.Samples}
		if !t.Oldest.IsZero() {
			tj.Oldest = wireTime(t.Oldest)
			tj.Newest = wireTime(t.Newest)
		}
		e.Tiers = append(e.Tiers, tj)
	}
	return e
}

// StatsResponse is the whole-store operator report.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	Series        int     `json:"series"`
	// EstimatedSeries counts series with a live ingest estimator;
	// EstimatorMaxSeries is the configured cap (0 = unbounded) and
	// EstimatorRejectedPoints counts observations dropped because the
	// cap was hit.
	EstimatedSeries         int   `json:"estimated_series"`
	EstimatorMaxSeries      int   `json:"estimator_max_series"`
	EstimatorRejectedPoints int64 `json:"estimator_rejected_points"`
	// EstimatorEvictedSeries counts idle series LRU-evicted to make room
	// under the cap (pod-churn renaming retires old ids through here).
	EstimatorEvictedSeries int64 `json:"estimator_evicted_series"`
	RawPoints              int   `json:"raw_points"`
	Buckets                int   `json:"buckets"`
	Appends                int64 `json:"appends"`
	Compacted              int64 `json:"compacted"`
	Dropped                int64 `json:"dropped"`
	// CompressedBytes/CompressedEntries describe the sealed block
	// payload; BytesPerPoint is their ratio (0 before the first seal).
	// The Raw*/Tier* pairs split both into sealed raw blocks (bytes per
	// stored sample) and sealed tier blocks (bytes per summary bucket).
	CompressedBytes       int64   `json:"compressed_bytes"`
	CompressedEntries     int64   `json:"compressed_entries"`
	BytesPerPoint         float64 `json:"bytes_per_point"`
	RawCompressedBytes    int64   `json:"raw_compressed_bytes"`
	RawCompressedEntries  int64   `json:"raw_compressed_entries"`
	TierCompressedBytes   int64   `json:"tier_compressed_bytes"`
	TierCompressedEntries int64   `json:"tier_compressed_entries"`
	// OpenTailBytes is the memory the open blocks hold allocated: the raw
	// runs' buffers (unsealed points, compressed as they arrive), staged
	// tier buckets and the tiers' open compressed payloads.
	OpenTailBytes int64 `json:"open_tail_bytes"`
	// WAL reports the durability subsystem; absent when the server runs
	// memory-only.
	WAL *WALStatsJSON `json:"wal,omitempty"`
}

// WALStatsJSON is the durability subsystem's operator view.
type WALStatsJSON struct {
	Dir string `json:"dir"`
	// Segments/WALBytes describe the live segment log; Records and
	// Syncs count this session's appended records and group commits.
	Segments int   `json:"segments"`
	WALBytes int64 `json:"wal_bytes"`
	Records  int64 `json:"records"`
	Syncs    int64 `json:"syncs"`
	// Errors counts failed log appends/syncs/rotations and LastError is
	// the newest failure: non-zero means durability is degraded (disk
	// full, EIO) even though ingest keeps serving.
	Errors    int64  `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	// Snapshots counts snapshots taken this session (SnapshotErrors the
	// failed attempts); LastSnapshot stamps the newest (absent before
	// the first).
	Snapshots      int64  `json:"snapshots"`
	SnapshotErrors int64  `json:"snapshot_errors"`
	LastSnapshot   string `json:"last_snapshot,omitempty"`
	SnapshotSeries int    `json:"snapshot_series,omitempty"`
	// ScrubRuns/ScrubFiles/ScrubCorrupt report the background CRC scrub
	// over this session's sealed segments and the newest snapshot; a
	// non-zero ScrubCorrupt means on-disk bit rot (also counted into
	// Errors). LastScrub stamps the newest pass.
	ScrubRuns    int64  `json:"scrub_runs"`
	ScrubFiles   int64  `json:"scrub_files"`
	ScrubCorrupt int64  `json:"scrub_corrupt"`
	LastScrub    string `json:"last_scrub,omitempty"`
	// Replay describes what boot recovery did.
	Replay WALReplayJSON `json:"replay"`
}

// WALReplayJSON summarizes boot recovery.
type WALReplayJSON struct {
	SnapshotLoaded  bool    `json:"snapshot_loaded"`
	Segments        int     `json:"segments"`
	Records         int64   `json:"records"`
	Points          int64   `json:"points"`
	SkippedPoints   int64   `json:"skipped_points"`
	Series          int     `json:"series"`
	EstimatorStates int     `json:"estimator_states"`
	TornTail        bool    `json:"torn_tail"`
	DurationSeconds float64 `json:"duration_seconds"`
}

func statsResponseFrom(st tsdb.Stats, est *monitor.IngestEstimator, walStats *wal.Stats, uptime time.Duration) StatsResponse {
	out := StatsResponse{
		UptimeSeconds:           uptime.Seconds(),
		Shards:                  st.Shards,
		Series:                  st.Series,
		EstimatedSeries:         est.Len(),
		EstimatorMaxSeries:      est.Config().MaxSeries,
		EstimatorRejectedPoints: est.Rejected(),
		EstimatorEvictedSeries:  est.Evicted(),
		RawPoints:               st.RawPoints,
		Buckets:                 st.Buckets,
		Appends:                 st.Appends,
		Compacted:               st.Compacted,
		Dropped:                 st.Dropped,
		CompressedBytes:         st.CompressedBytes,
		CompressedEntries:       st.CompressedEntries,
		RawCompressedBytes:      st.RawCompressedBytes,
		RawCompressedEntries:    st.RawCompressedEntries,
		TierCompressedBytes:     st.TierCompressedBytes,
		TierCompressedEntries:   st.TierCompressedEntries,
		OpenTailBytes:           st.OpenTailBytes,
	}
	if st.CompressedEntries > 0 {
		out.BytesPerPoint = float64(st.CompressedBytes) / float64(st.CompressedEntries)
	}
	if walStats != nil {
		w := &WALStatsJSON{
			Dir:            walStats.Dir,
			Segments:       walStats.Log.Segments,
			WALBytes:       walStats.Log.Bytes,
			Records:        walStats.Log.Records,
			Syncs:          walStats.Log.Syncs,
			Errors:         walStats.Log.Errors,
			LastError:      walStats.Log.LastError,
			Snapshots:      walStats.Snapshots,
			SnapshotErrors: walStats.SnapshotErrors,
			SnapshotSeries: walStats.SnapshotSeries,
			ScrubRuns:      walStats.ScrubRuns,
			ScrubFiles:     walStats.ScrubFiles,
			ScrubCorrupt:   walStats.ScrubCorrupt,
			Replay: WALReplayJSON{
				SnapshotLoaded:  walStats.Replay.SnapshotLoaded,
				Segments:        walStats.Replay.Segments,
				Records:         walStats.Replay.Records,
				Points:          walStats.Replay.Points,
				SkippedPoints:   walStats.Replay.SkippedPoints,
				Series:          walStats.Replay.Series,
				EstimatorStates: walStats.Replay.EstimatorStates,
				TornTail:        walStats.Replay.TornTail,
				DurationSeconds: walStats.Replay.Duration.Seconds(),
			},
		}
		if !walStats.LastSnapshot.IsZero() {
			w.LastSnapshot = wireTime(walStats.LastSnapshot)
		}
		if !walStats.LastScrub.IsZero() {
			w.LastScrub = wireTime(walStats.LastScrub)
		}
		out.WAL = w
	}
	return out
}

func wireTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
