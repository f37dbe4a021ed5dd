//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of what is put back — the estimator's pooled work buffers included —
// so allocation counts there measure the detector, not the estimator.
const raceEnabled = true
