// The four workloads. One code path runs all of them (segments.go); only
// the sizes and shapes below differ. The counts are frozen: they were
// sized once against the seed commit so that the ingest, query and
// recovery segments each last at least five seconds there, and a later
// change must be measured on the same counts.

package main

import "fmt"

// frozenSeconds is the --seconds value the counts below are sized for
// (BENCHMARK.json's run_seconds): a whole run takes about this long at
// the seed commit when the box is calm. Another --seconds scales the
// ingest and query counts by seconds/frozenSeconds.
const frozenSeconds = 24

// pacedRate is the open-loop ingest rate beside the query segment, in
// points per second.
const pacedRate = 100_000

type workload struct {
	name string
	why  string

	// http selects POST /api/v1/ingest on a keep-alive connection; false
	// selects the bulk TCP lane.
	http bool
	// series is the fleet size; a frame carries frameSeries series ×
	// run consecutive samples each.
	series, frameSeries, run int
	// preload and ingest are samples per series in S0 and S1.
	preload, ingest int

	// The S3 query shape: match selects a `?match=` over one rack (16
	// series) instead of one series; window is the span queried, in
	// seconds before the checkpoint's newest sample (0 = everything
	// retained); targets is how many distinct racks or series the
	// queries cycle over (0 = all of them).
	match       bool
	window      int
	reconstruct bool
	maxPoints   int
	targets     int
	queries     int

	// recoveries is how many times S4 kills and restarts the daemon: as
	// many as it takes for the replays to add up to five seconds.
	recoveries int
}

var workloads = []workload{
	{
		name:   "steady_bulk",
		why:    "Steady-state bulk ingest: warm estimators, a seal every 128 points, WAL append and the ring-to-tier cascade; estimator, codec and WAL changes must show here.",
		series: 512, frameSeries: 64, run: 64,
		preload: 4096, ingest: 11264,
		window: 2048, queries: 7000,
		recoveries: 1,
	},
	{
		name:   "highcard_http",
		why:    "The same ingest core at run length 1 over HTTP with 16x the series: per-request cost, first-sight and probe path, bytes per series; estimator steady state matters little.",
		http:   true,
		series: 8192, frameSeries: 512, run: 1,
		preload: 128, ingest: 384,
		match: true, queries: 1700,
		recoveries: 2,
	},
	{
		name:   "dashboard_hot",
		why:    "Reads do most of the work and the 64-series working set fits the 32 MiB block cache while ingest seals and evicts under it; ingest changes should not move its query metric.",
		series: 512, frameSeries: 64, run: 64,
		preload: 4096, ingest: 11264,
		match: true, window: 2048, reconstruct: true, maxPoints: 4096, targets: 4, queries: 2000,
		recoveries: 1,
	},
	{
		name:   "scan_cold",
		why:    "Same store contents as dashboard_hot, but the scan set is twice the block cache so the LRU always misses: decode, tier stitch and JSON dominate; a cache change must not cost here.",
		series: 512, frameSeries: 512, run: 4,
		preload: 4096, ingest: 11264,
		maxPoints: 4096, queries: 2000,
		recoveries: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its ingest and query counts sized for seconds.
// The preload is not scaled: it is what fills every raw ring before the
// ingest clock starts.
func (w workload) scaled(seconds int) workload {
	if seconds == frozenSeconds {
		return w
	}
	w.ingest = max(w.run, w.ingest*seconds/frozenSeconds/w.run*w.run)
	w.queries = max(1, w.queries*seconds/frozenSeconds)
	return w
}

func (w *workload) frameLines() int { return w.frameSeries * w.run }

// frames is how many frames carry pts samples of every series.
func (w *workload) frames(pts int) int { return pts / w.run * (w.series / w.frameSeries) }
