package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// Archiver implements the paper's a-posteriori path (§4, first
// paragraph): when measuring is cheap but storing and analyzing are not,
// keep polling at the high rate, compute the Nyquist rate over each
// completed window, and retain only the window re-sampled at that rate.
// Aliased windows are stored raw — losing them would discard exactly the
// information the estimator could not bound.
type Archiver struct {
	cfg      ArchiverConfig
	est      core.Estimator // the paper's method: 99 % cut-off, plain FFT
	store    *tsdb.DB
	id       string
	interval time.Duration

	buf        []float64
	blockStart time.Time
	haveStart  bool

	policy core.RatePolicy // fed each block's verdict; blocks are disjoint (turnover 1)

	raw, kept, aliasedBlocks int
}

// ArchiverConfig parameterizes an Archiver.
type ArchiverConfig struct {
	// WindowSamples is the analysis block size; zero selects 1024.
	WindowSamples int
	// QuantStep, when positive, is recorded so ReadBack can re-quantize
	// reconstructions to the sensor grid.
	QuantStep float64
}

func (c ArchiverConfig) withDefaults() ArchiverConfig {
	if c.WindowSamples <= 0 {
		c.WindowSamples = 1024
	}
	return c
}

// NewArchiver returns an archiver writing series id to store. interval is
// the (uniform) spacing of the ingested samples.
func NewArchiver(id string, store *tsdb.DB, interval time.Duration, cfg ArchiverConfig) (*Archiver, error) {
	if store == nil {
		return nil, errors.New("experiments: archiver needs a store")
	}
	if interval <= 0 {
		return nil, series.ErrBadInterval
	}
	return &Archiver{cfg: cfg.withDefaults(), store: store, id: id, interval: interval}, nil
}

// Ingest buffers one high-rate sample; completing a window triggers an
// automatic Flush. Samples are assumed to arrive in time order at the
// configured interval.
func (a *Archiver) Ingest(p series.Point) error {
	if !a.haveStart {
		a.blockStart = p.Time
		a.haveStart = true
	}
	a.buf = append(a.buf, p.Value)
	a.raw++
	if len(a.buf) >= a.cfg.WindowSamples {
		return a.Flush()
	}
	return nil
}

// Flush archives the buffered partial window. Blocks too short for
// estimation, and blocks the estimator flags as aliased, are stored raw.
func (a *Archiver) Flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	u := &series.Uniform{Start: a.blockStart, Interval: a.interval, Values: a.buf}
	res, err := a.est.Estimate(u)
	rate := 0.0
	if res != nil {
		rate = res.NyquistRate
	}
	d, err := a.policy.Feed(rate, err, 1)
	if err != nil {
		return err
	}
	block := u
	if !d.Trusted {
		a.aliasedBlocks++
	} else if block, err = core.Downsample(u, series.Headroom*rate); err != nil {
		return err
	}
	if err := a.store.AppendUniform(a.id, block); err != nil {
		return fmt.Errorf("experiments: archiver block: %w", err)
	}
	a.kept += len(block.Values)
	// Close the estimate→retain loop: the block's Nyquist estimate retunes
	// the store's retention tiers, so a bounded store degrades this series
	// on the signal's own terms rather than a default grid.
	if d.Changed {
		a.store.SetNyquistRate(a.id, d.Held)
	}
	a.buf = a.buf[:0]
	a.haveStart = false
	return nil
}

// Savings reports the raw sample count seen, the samples actually stored,
// and the number of blocks retained raw because they looked aliased or
// were too short to estimate.
func (a *Archiver) Savings() (raw, stored, aliasedBlocks int) {
	return a.raw, a.kept, a.aliasedBlocks
}

// Reduction returns raw/stored (0 before any flush).
func (a *Archiver) Reduction() float64 {
	if a.kept == 0 {
		return 0
	}
	return float64(a.raw) / float64(a.kept)
}

// ReadBack reconstructs the archived series at the target rate (hertz)
// over everything stored so far, re-quantizing when the config carries a
// quantum — the "reconstruct on demand" half of the a-posteriori path.
func (a *Archiver) ReadBack(targetRate float64) (*series.Uniform, error) {
	if !(targetRate > 0) {
		return nil, errors.New("experiments: target rate must be positive")
	}
	stored, err := a.store.Full(a.id)
	if err != nil {
		return nil, err
	}
	// Archived blocks have varying rates; regularize onto the stored
	// median grid first, then band-limited-upsample to the target.
	u, err := series.New(stored.Points).RegularizeAuto()
	if err != nil {
		return nil, err
	}
	outLen := int(float64(u.Len()) * targetRate / u.SampleRate())
	if outLen < u.Len() {
		outLen = u.Len()
	}
	return core.Reconstruct(u, outLen, core.ReconstructConfig{QuantStep: a.cfg.QuantStep})
}
