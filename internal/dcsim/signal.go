package dcsim

import (
	"errors"
	"math"
	"math/rand"
)

// BandLimited is a deterministic, strictly band-limited test signal: a sum
// of sinusoids with frequencies at or below its band limit, amplitudes
// decaying toward the band edge (pink-ish, as real telemetry looks) but
// with a guaranteed energetic component *at* the edge so that the Nyquist
// rate of the generated signal is genuinely 2*BandLimit.
type BandLimited struct {
	comps []component
	limit float64
}

type component struct {
	freq, amp, phase float64
}

// NewBandLimited builds a signal with nComps sinusoids below bandLimit
// (hertz) whose overall amplitude scale is amp, using rng for the random
// draw. The highest component always sits exactly at bandLimit with at
// least 10 % of the total amplitude, pinning the true Nyquist rate.
func NewBandLimited(rng *rand.Rand, bandLimit, amp float64, nComps int) (*BandLimited, error) {
	if !(bandLimit > 0) {
		return nil, errors.New("dcsim: band limit must be positive")
	}
	if nComps < 1 {
		nComps = 1
	}
	b := &BandLimited{limit: bandLimit}
	total := 0.0
	comps := make([]component, 0, nComps)
	for i := 0; i < nComps-1; i++ {
		// Log-uniform frequencies within (bandLimit/100, bandLimit).
		f := bandLimit * math.Pow(10, -2*rng.Float64())
		// Amplitude decays with frequency (1/sqrt(f/flo) profile).
		a := 1 / math.Sqrt(f/(bandLimit/100))
		comps = append(comps, component{freq: f, amp: a, phase: 2 * math.Pi * rng.Float64()})
		total += a
	}
	return b.pinned(rng, comps, total, amp), nil
}

// pinned appends the component that pins the band limit, at least a sixth
// of the others' total amplitude, and scales the sum to amp.
func (b *BandLimited) pinned(rng *rand.Rand, comps []component, total, amp float64) *BandLimited {
	edge := component{freq: b.limit, amp: math.Max(total/6, 1), phase: 2 * math.Pi * rng.Float64()}
	comps = append(comps, edge)
	total += edge.amp
	for i := range comps {
		comps[i].amp *= amp / total
	}
	b.comps = comps
	return b
}

// NewHarmonicSeries builds a signal whose components sit at integer
// multiples of baseFreq up to bandLimit — the structure of real datacenter
// telemetry, which is dominated by the diurnal cycle and its harmonics.
// The top harmonic is always included with at least ~1/7 of the amplitude
// so the band limit stays energetically visible to a 99 % energy cut-off.
// nComps bounds how many distinct harmonics are drawn.
func NewHarmonicSeries(rng *rand.Rand, baseFreq, bandLimit, amp float64, nComps int) (*BandLimited, error) {
	if !(baseFreq > 0) {
		return nil, errors.New("dcsim: base frequency must be positive")
	}
	if bandLimit < baseFreq {
		return nil, errors.New("dcsim: band limit below base frequency")
	}
	kMax := int(bandLimit / baseFreq)
	if kMax < 1 {
		kMax = 1
	}
	if nComps < 1 {
		nComps = 1
	}
	if nComps > kMax {
		nComps = kMax
	}
	b := &BandLimited{limit: float64(kMax) * baseFreq}
	total := 0.0
	comps := make([]component, 0, nComps)
	seen := map[int]bool{kMax: true}
	for len(comps) < nComps-1 {
		// Log-uniform harmonic index in [1, kMax).
		k := 1 + int(float64(kMax)*math.Pow(10, -2*rng.Float64()))
		if k >= kMax || seen[k] {
			// Collisions are fine; fall back to a linear draw to
			// guarantee progress on small kMax.
			k = 1 + rng.Intn(kMax)
			if seen[k] {
				break
			}
		}
		seen[k] = true
		a := 1 / math.Sqrt(float64(k))
		comps = append(comps, component{freq: float64(k) * baseFreq, amp: a, phase: 2 * math.Pi * rng.Float64()})
		total += a
	}
	return b.pinned(rng, comps, total, amp), nil
}

// At returns the signal value at time t seconds.
func (b *BandLimited) At(t float64) float64 {
	var v float64
	for _, c := range b.comps {
		v += c.amp * math.Sin(2*math.Pi*c.freq*t+c.phase)
	}
	return v
}

// BandLimit returns the highest frequency present in the signal, in hertz.
func (b *BandLimited) BandLimit() float64 { return b.limit }

// whiteNoise produces deterministic white measurement noise: a hash of the
// sample time and a per-device seed, mapped to [-1, 1). Unlike an AR
// process it is well defined at any time instant, so two pollers sampling
// the same device at different rates see consistent values — exactly how
// real sensor noise behaves, and a prerequisite for the dual-rate detector
// to work on simulated devices.
func whiteNoise(seed uint64, t float64) float64 {
	x := math.Float64bits(t) ^ (seed * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(int64(x))/math.MaxInt64 - 0 // in (-1, 1)
}

// Burst is a transient high-frequency event layered on a base signal: a
// link flap, a fail-stop, an incident. During [Start, Start+Duration) it
// adds an enveloped oscillation at Freq; outside it contributes nothing.
// Bursts are how the fleet exercises the adaptive sampler's probe path
// (§4.2's frame-checksum example).
type Burst struct {
	// Start and Duration bound the event, in seconds of signal time.
	Start, Duration float64
	// Freq is the oscillation frequency in hertz (typically far above
	// the base signal's band limit).
	Freq float64
	// Amp is the oscillation amplitude.
	Amp float64
}

// At returns the burst's contribution at time t.
func (b Burst) At(t float64) float64 {
	if t < b.Start || t >= b.Start+b.Duration || b.Duration <= 0 {
		return 0
	}
	// Raised-cosine envelope avoids spectral splatter from hard edges.
	u := (t - b.Start) / b.Duration
	env := 0.5 * (1 - math.Cos(2*math.Pi*u))
	return b.Amp * env * math.Sin(2*math.Pi*b.Freq*t)
}

// FlapTrain returns the bursts of a periodically recurring event — a
// flapping transceiver, a nightly batch job — every period seconds
// starting at first, lasting burstLen each, until end. It is the standard
// workload for exercising the adaptive sampler's memory (§4.2).
func FlapTrain(first, period, burstLen, end, freq, amp float64) []Burst {
	var out []Burst
	if period <= 0 || burstLen <= 0 {
		return out
	}
	for t := first; t < end; t += period {
		out = append(out, Burst{Start: t, Duration: burstLen, Freq: freq, Amp: amp})
	}
	return out
}

// Composite sums a base signal and any number of bursts.
type Composite struct {
	// Base is the underlying band-limited signal.
	Base *BandLimited
	// Bursts are transient events.
	Bursts []Burst
}

// At returns the composite value at time t.
func (c *Composite) At(t float64) float64 {
	v := c.Base.At(t)
	for _, b := range c.Bursts {
		v += b.At(t)
	}
	return v
}
