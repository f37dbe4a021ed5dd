//go:build race

package api

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of what is put back, so allocation counts there measure the detector,
// not the pipeline.
const raceEnabled = true
