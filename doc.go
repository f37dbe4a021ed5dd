// Package repro reproduces "Towards a Cost vs. Quality Sweet Spot for
// Monitoring Networks" (HotNets 2021): treating periodically polled
// datacenter metrics as sampled signals and using the Nyquist-Shannon
// theorem to choose measurement rates.
//
// Import the public APIs instead of this package:
//
//   - repro/nyquist — estimation, aliasing detection, adaptive sampling,
//     reconstruction (the paper's contribution)
//   - repro/fleet — the synthetic datacenter, monitoring pipeline, and
//     the drivers that regenerate every figure of the evaluation
//
// The toolkit also runs as a network service: cmd/nyquistd is the
// Nyquist-aware ingest/query daemon (HTTP batch ingest with a live
// estimate per pushed series, estimate-tuned retention over
// Gorilla-compressed storage, tier-stitched range queries, and — with
// -data-dir — a write-ahead log plus block snapshots that make the
// daemon restart-safe; see docs/API.md), and cmd/monitorsim -push
// load-generates against it.
//
// The benchmarks in this package (bench_test.go) regenerate each paper
// figure under the Go benchmark harness; see EXPERIMENTS.md for
// paper-versus-measured results (serving figures from scripts/gobench.sh)
// and DESIGN.md for the system inventory.
package repro
