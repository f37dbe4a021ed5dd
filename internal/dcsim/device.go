package dcsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dsp"
	"repro/internal/series"
)

// Device is one monitored metric on one simulated datacenter component: a
// switch interface counter, a server temperature probe, a pingmesh path.
// It implements the core.Sampler contract (At) so the estimator, detector
// and adaptive sampler can drive it directly.
type Device struct {
	// ID uniquely identifies the metric/device pair in the fleet.
	ID string
	// Metric is the metric family.
	Metric Metric
	// TrueNyquist is the ground-truth Nyquist rate of the underlying
	// signal in hertz (2x its band limit) — known here because we build
	// the signal, unknowable in production.
	TrueNyquist float64
	// PollInterval is the ad-hoc interval the production monitoring
	// system currently uses for this device.
	PollInterval time.Duration

	profile Profile
	sig     *Composite
	quant   *dsp.Quantizer
	noise   float64
	seed    uint64
}

// DiurnalFreq is one cycle per day in hertz, the fundamental of datacenter
// telemetry rhythms.
const DiurnalFreq = 1.0 / 86400

// NewDevice builds a device of the given metric family with the given
// band limit (hertz). rng drives the random signal construction; seed
// derives the deterministic measurement noise.
//
// Devices whose band limit admits at least one full cycle per day are
// built as diurnal-harmonic signals (components at multiples of
// DiurnalFreq), which is how production telemetry actually behaves.
// Slower devices are "quiet": their variation is scaled below the sensor
// quantum, so the exported readings are constant — the idle counters that
// make production fleets so compressible.
func NewDevice(id string, m Metric, bandLimit float64, pollInterval time.Duration, rng *rand.Rand, seed uint64) (*Device, error) {
	p := ProfileFor(m)
	var (
		base  *BandLimited
		noise = p.NoiseAmp
		err   error
	)
	if bandLimit >= DiurnalFreq {
		base, err = NewHarmonicSeries(rng, DiurnalFreq, bandLimit, p.Swing, 12)
	} else {
		// Quiet device: real variation exists but sits below the sensor
		// quantum, and the noise must too, or the quantized output
		// would flip and look like white noise.
		amp := p.Swing
		if p.QuantStep > 0 {
			amp = 0.25 * p.QuantStep
			if noise > 0.15*p.QuantStep {
				noise = 0.15 * p.QuantStep
			}
		}
		base, err = NewBandLimited(rng, bandLimit, amp, 12)
	}
	if err != nil {
		return nil, err
	}
	var q *dsp.Quantizer
	if p.QuantStep > 0 {
		q = &dsp.Quantizer{Step: p.QuantStep}
	}
	return &Device{
		ID:           id,
		Metric:       m,
		TrueNyquist:  2 * base.BandLimit(),
		PollInterval: pollInterval,
		profile:      p,
		sig:          &Composite{Base: base},
		quant:        q,
		noise:        noise,
		seed:         seed,
	}, nil
}

// At returns the measured value at time t seconds: base signal plus any
// bursts plus the metric's base level, white measurement noise, and sensor
// quantization — what a poll at t would actually read.
func (d *Device) At(t float64) float64 {
	v := d.profile.Base + d.sig.At(t)
	if d.noise > 0 {
		v += d.noise * whiteNoise(d.seed, t)
	}
	return d.quant.Value(v)
}

// CleanAt returns the value without noise and quantization, for fidelity
// baselines.
func (d *Device) CleanAt(t float64) float64 {
	return d.profile.Base + d.sig.At(t)
}

// AddBurst layers a transient event onto the device's signal.
func (d *Device) AddBurst(b Burst) {
	d.sig.Bursts = append(d.sig.Bursts, b)
}

// NewContinuousDevice builds a device whose signal components sit at
// arbitrary (non-harmonic) frequencies below the band limit. Used for the
// fleet's deliberately under-sampled devices: content folding from
// off-grid frequencies smears across the spectrum, producing the
// "all bins needed" aliased signature the estimator looks for — whereas
// harmonic content folds back onto clean bins and is undetectable from a
// single trace (the fundamental blind spot motivating §4.1's dual-rate
// detection).
func NewContinuousDevice(id string, m Metric, bandLimit float64, pollInterval time.Duration, rng *rand.Rand, seed uint64) (*Device, error) {
	p := ProfileFor(m)
	base, err := NewBandLimited(rng, bandLimit, p.Swing, 12)
	if err != nil {
		return nil, err
	}
	var q *dsp.Quantizer
	if p.QuantStep > 0 {
		q = &dsp.Quantizer{Step: p.QuantStep}
	}
	// Under-sampled production traces carry a visible broadband floor
	// (folded micro-bursts, counter churn); 15 % of the swing puts ~15 %
	// of the energy there, which is what makes such traces land in the
	// paper's "cannot reliably detect the Nyquist rate" bucket.
	noise := p.NoiseAmp
	if n := 0.15 * p.Swing; n > noise {
		noise = n
	}
	return &Device{
		ID:           id,
		Metric:       m,
		TrueNyquist:  2 * base.BandLimit(),
		PollInterval: pollInterval,
		profile:      p,
		sig:          &Composite{Base: base},
		quant:        q,
		noise:        noise,
		seed:         seed,
	}, nil
}

// SetNoiseAmp overrides the measurement-noise amplitude (0 models an
// ideal repeatable sensor whose only distortion is quantization).
func (d *Device) SetNoiseAmp(a float64) {
	if a < 0 {
		a = 0
	}
	d.noise = a
}

// Profile returns the device's metric profile.
func (d *Device) Profile() Profile { return d.profile }

// PollRate returns the production sampling rate in hertz.
func (d *Device) PollRate() float64 {
	if d.PollInterval <= 0 {
		return 0
	}
	return 1 / d.PollInterval.Seconds()
}

// Trace polls the device every PollInterval for the given duration
// starting at startOffset (seconds of signal time) and returns the uniform
// trace the production monitoring system would have collected.
func (d *Device) Trace(start time.Time, startOffset float64, duration time.Duration) *series.Uniform {
	n := int(duration / d.PollInterval)
	if n < 1 {
		n = 1
	}
	ivs := d.PollInterval.Seconds()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.At(startOffset + float64(i)*ivs)
	}
	return &series.Uniform{Start: start, Interval: d.PollInterval, Values: vals}
}

// CounterTrace exports the device as a cumulative counter, the way
// drop/discard/byte metrics actually leave a switch: each poll reads the
// integral of the underlying rate signal since the start, rounded to
// whole events. Analysis pipelines difference such traces back into rates
// (series.Diff) before spectral analysis — the paper treats its counter
// metrics the same way.
func (d *Device) CounterTrace(start time.Time, startOffset float64, duration time.Duration) *series.Uniform {
	n := int(duration / d.PollInterval)
	if n < 1 {
		n = 1
	}
	ivs := d.PollInterval.Seconds()
	vals := make([]float64, n)
	// Integrate the clean rate with a few sub-steps per poll so the
	// count is accurate even for long poll intervals, clamping negative
	// rate excursions to zero as real counters do.
	const subSteps = 4
	dt := ivs / subSteps
	var acc float64
	for i := range vals {
		base := startOffset + float64(i)*ivs
		for s := 0; s < subSteps; s++ {
			r := d.CleanAt(base + float64(s)*dt)
			if r > 0 {
				acc += r * dt
			}
		}
		vals[i] = math.Floor(acc)
	}
	return &series.Uniform{Start: start, Interval: d.PollInterval, Values: vals}
}

// RateFromCounter converts a cumulative counter trace back into the
// per-interval rate signal analysis operates on: the first difference
// scaled by the sampling interval.
func RateFromCounter(u *series.Uniform) (*series.Uniform, error) {
	if u == nil || u.Len() < 2 {
		return nil, series.ErrTooShort
	}
	diffs := series.Diff(u.Values)
	ivs := u.Interval.Seconds()
	if !(ivs > 0) {
		return nil, series.ErrBadInterval
	}
	for i := range diffs {
		diffs[i] /= ivs
	}
	return &series.Uniform{Start: u.Start.Add(u.Interval), Interval: u.Interval, Values: diffs}, nil
}

// TraceAtRate polls at an arbitrary rate (hertz) instead of the production
// interval; used by experiments that need reference (oversampled) traces.
func (d *Device) TraceAtRate(start time.Time, startOffset float64, duration time.Duration, rate float64) (*series.Uniform, error) {
	if !(rate > 0) {
		return nil, fmt.Errorf("dcsim: non-positive trace rate %v", rate)
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		return nil, fmt.Errorf("dcsim: trace rate %v too fast to represent", rate)
	}
	n := int(duration.Seconds() * rate)
	if n < 1 {
		n = 1
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.At(startOffset + float64(i)/rate)
	}
	return &series.Uniform{Start: start, Interval: interval, Values: vals}, nil
}
