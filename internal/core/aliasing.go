package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dsp"
)

// DualRateConfig parameterizes the Penny-style dual-rate aliasing detector
// (paper §4.1): sample the signal at two rates f1 > f2 whose ratio is not
// an integer; if the spectra disagree below f2/2, content above f2/2 exists
// and sampling at f2 would alias.
type DualRateConfig struct {
	// Tolerance is the normalized spectral-divergence score above which
	// aliasing is declared. Zero selects 0.1.
	Tolerance float64
	// MedianPrefilter, when >= 3, runs both traces through a sliding
	// median of that window before comparison — the paper's "noise
	// especially of a small amplitude can be filtered using standard
	// techniques" (§4.1). It removes impulsive glitches that would
	// otherwise register as broadband divergence, at the cost of
	// attenuating genuine content near the slow Nyquist limit.
	MedianPrefilter int
}

func (c DualRateConfig) withDefaults() DualRateConfig {
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	return c
}

// dualRateNoiseFloor is the fraction of the strongest bin's power below
// which a bin is ignored in both spectra, filtering the measurement-noise
// floor as the paper suggests (§4.1). The floor must be relative to the
// peak rather than the total: white measurement noise spreads its fixed
// per-sample power across however many bins the rate yields, so per-bin
// noise power is rate-dependent and would otherwise register as spurious
// divergence.
const dualRateNoiseFloor = 5e-3

// DualRateDetector detects aliasing by comparing spectra measured at two
// sampling rates.
type DualRateDetector struct {
	cfg DualRateConfig
}

// NewDualRateDetector returns a detector with the given configuration.
func NewDualRateDetector(cfg DualRateConfig) *DualRateDetector {
	return &DualRateDetector{cfg: cfg.withDefaults()}
}

// ErrRateRatio is returned when the two sampling rates have an (near-)
// integer ratio, which the method forbids (paper footnote 1: f2 must not be
// a factor of f1, or aliased images land on the same bins in both spectra
// and the comparison is blind).
var ErrRateRatio = errors.New("core: dual-rate sampling requires a non-integer rate ratio")

// ValidateRatePair checks that fast > slow > 0 and fast/slow is not within
// 0.05 of an integer (an absolute margin: what matters physically is how
// far apart the two spectra's alias images land, which is set by the
// fractional part of the ratio regardless of its magnitude).
func ValidateRatePair(fast, slow float64) error {
	if !(slow > 0) || !(fast > slow) {
		return fmt.Errorf("core: need fast > slow > 0, got fast=%v slow=%v", fast, slow)
	}
	ratio := fast / slow
	if math.Abs(ratio-math.Round(ratio)) < 0.05 {
		return ErrRateRatio
	}
	return nil
}

// SuggestSlowRate returns a rate below fast with a safely non-integer
// ratio, suitable as the companion probe rate. The fixed factor 1/φ
// (golden ratio) is maximally far from all rationals with small
// denominators.
func SuggestSlowRate(fast float64) float64 {
	const invPhi = 0.6180339887498949
	return fast * invPhi
}

// Verdict is the outcome of a dual-rate comparison.
type Verdict struct {
	// Aliased is true when the spectra diverge beyond tolerance.
	Aliased bool
	// Score is the normalized divergence in [0, 1]: 0 when the spectra
	// agree exactly below slowRate/2, approaching 1 for total mismatch.
	Score float64
	// ComparedBins is how many frequency bins entered the comparison.
	ComparedBins int
}

// Compare analyzes two traces of the same underlying signal window: fastX
// sampled at fastRate and slowX at slowRate. It returns the aliasing
// verdict for the slow rate.
func (d *DualRateDetector) Compare(fastX []float64, fastRate float64, slowX []float64, slowRate float64) (*Verdict, error) {
	if err := ValidateRatePair(fastRate, slowRate); err != nil {
		return nil, err
	}
	if len(fastX) < 8 || len(slowX) < 8 {
		return nil, ErrTooShort
	}
	cfg := d.cfg
	if cfg.MedianPrefilter >= 3 {
		fastX = dsp.MedianFilter(fastX, cfg.MedianPrefilter)
		slowX = dsp.MedianFilter(slowX, cfg.MedianPrefilter)
	}
	// A Hann taper on both traces suppresses the leakage differences two
	// different rates inevitably produce.
	fastSpec, err := dsp.Periodogram(detrendCopy(fastX), fastRate, dsp.Hann{})
	if err != nil {
		return nil, err
	}
	slowSpec, err := dsp.Periodogram(detrendCopy(slowX), slowRate, dsp.Hann{})
	if err != nil {
		return nil, err
	}
	// Compare on the slow spectrum's grid, strictly below slowRate/2 with
	// a guard band: the top bins of the slow spectrum always disagree
	// slightly because of leakage.
	limit := slowRate / 2 * 0.9
	floor := dualRateNoiseFloor * math.Max(peakPower(fastSpec), peakPower(slowSpec))
	var num, den float64
	bins := 0
	for k := 1; k < len(slowSpec.Freqs); k++ {
		f := slowSpec.Freqs[k]
		if f >= limit {
			break
		}
		pSlow := slowSpec.Power[k]
		pFast := interpPower(fastSpec, f)
		if pSlow < floor && pFast < floor {
			continue
		}
		num += math.Abs(pSlow - pFast)
		den += pSlow + pFast
		bins++
	}
	v := &Verdict{ComparedBins: bins}
	if den > 0 {
		v.Score = num / den
	}
	v.Aliased = v.Score > cfg.Tolerance
	return v, nil
}

// peakPower returns the strongest non-DC bin power of a spectrum.
func peakPower(s *dsp.Spectrum) float64 {
	var best float64
	for k := 1; k < len(s.Power); k++ {
		if s.Power[k] > best {
			best = s.Power[k]
		}
	}
	return best
}

// interpPower linearly interpolates a spectrum's power at frequency f.
func interpPower(s *dsp.Spectrum, f float64) float64 {
	n := len(s.Freqs)
	if n == 0 {
		return 0
	}
	if f <= s.Freqs[0] {
		return s.Power[0]
	}
	if f >= s.Freqs[n-1] {
		return s.Power[n-1]
	}
	// Uniform grid: locate directly.
	df := s.BinWidth()
	if df <= 0 {
		return s.Power[0]
	}
	pos := f / df
	lo := int(pos)
	if lo >= n-1 {
		return s.Power[n-1]
	}
	frac := pos - float64(lo)
	return s.Power[lo]*(1-frac) + s.Power[lo+1]*frac
}

func detrendCopy(x []float64) []float64 {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - mean
	}
	return out
}

// Sampler produces the value of the underlying continuous signal at an
// absolute time in seconds. The dcsim devices implement it; tests use
// closures.
type Sampler interface {
	// At returns the signal value at time t (seconds).
	At(t float64) float64
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(t float64) float64

// At implements Sampler.
func (f SamplerFunc) At(t float64) float64 { return f(t) }

// Probe samples src over [start, start+dur) at both fastRate and a
// companion slow rate (SuggestSlowRate when slowRate <= 0) and reports the
// aliasing verdict for the slow rate, together with the number of samples
// spent. This is the measurement step of the adaptive loop (§4.1-4.2).
func (d *DualRateDetector) Probe(src Sampler, start, dur, fastRate, slowRate float64) (*Verdict, int, error) {
	if slowRate <= 0 {
		slowRate = SuggestSlowRate(fastRate)
	}
	fastX := SampleRange(src, start, dur, fastRate)
	slowX := SampleRange(src, start, dur, slowRate)
	v, err := d.Compare(fastX, fastRate, slowX, slowRate)
	if err != nil {
		return nil, 0, err
	}
	return v, len(fastX) + len(slowX), nil
}

// SampleRange polls src at rate hertz from signal time start for dur
// seconds: max(1, ⌊dur·rate⌋) samples at start + i/rate.
func SampleRange(src Sampler, start, dur, rate float64) []float64 {
	n := int(dur * rate)
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = src.At(start + float64(i)/rate)
	}
	return out
}
