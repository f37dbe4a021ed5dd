package core

import (
	"errors"
	"math"
	"time"

	"repro/internal/series"
)

// Persistence is how many consecutive like verdicts make a persistent
// one: a single aliased window among clean ones is usually noise, and a
// clean window sharing most samples with an aliased one certifies little.
const Persistence = 2

// RatePolicy is the §4.2 contract every estimate→retune loop follows, as
// a value fed the estimator's answer once per analysis window (Feed): only
// a persistent aliased signature raises a poll rate, a clean estimate
// lowers what is retained only on sustained evidence, and an aliased
// window never tunes anything. The zero value has seen no window and
// holds nothing.
//
// The held rate rises on the first trusted estimate above it and falls
// only on sustained evidence: a lower estimate is only counted, and once
// turnover trusted estimates in a row have all been lower the held rate
// drops to the highest of them. With turnover set to the number of
// windows it takes to replace every sample of the analysis window, the
// held rate is the highest clean estimate of the last window turnover: a
// lower reading counts as evidence only after none of the samples behind
// the held one remain, so the wander of a spectral cut-off across phases
// of the same window never moves what is retained.
type RatePolicy struct {
	held, peak            float64
	below, clean, aliased int32
	trusted               bool // see Standing
}

// Decision is what one analysis window asks of its loop (see Feed).
type Decision struct {
	Held                             float64 // the held rate after the window (0 = nothing held yet)
	Aliased, Probe, Trusted, Changed bool
}

// PollRate is the one poll-rate rule: Probe doubles the current rate, a
// trusted clean estimate lowers it to series.Headroom × estimate but never
// raises it, and anything else (a blip, an untrusted window) holds it.
func (d Decision) PollRate(current, estimate float64) float64 {
	switch {
	case d.Probe:
		return 2 * current
	case d.Trusted:
		return min(series.Headroom*estimate, current)
	}
	return current
}

// PollInterval is PollRate moving a poll interval by the rule's rate ratio,
// so a held or doubled rate is exactly the interval or half of it.
func (d Decision) PollInterval(current time.Duration, estimate float64) time.Duration {
	r := 1 / current.Seconds()
	return time.Duration(float64(current) / (d.PollRate(r, estimate) / r))
}

// holdable reports whether r is a rate the policy may hold: positive and finite.
func holdable(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// Feed reads one analysis window's answer from the estimator, its Nyquist
// rate and error, and returns what the loop must act on; turnover is how
// many windows replace every sample of the analysis window.
//
//   - ErrAliased is an aliased verdict (Aliased): it ends the clean run and
//     leaves the held rate and its wait alone. Probe reports that the
//     signature has persisted long enough to raise the poll rate; it also
//     retires the standing estimate (Standing).
//   - ErrTooShort, or a rate that is not positive and finite, is no
//     verdict: both runs restart and the hold is untouched.
//   - Any other error is returned with nothing fed.
//   - Otherwise the rate is a clean estimate, offered to the hold once
//     Trusted: over disjoint windows (turnover ≤ 1) from the first of a
//     clean run, over overlapping ones, which share samples with the
//     verdict before, from the second. Changed reports that it moved the
//     held rate, the only thing a store needs handing.
func (p *RatePolicy) Feed(rate float64, err error, turnover int) (Decision, error) {
	switch {
	case errors.Is(err, ErrAliased):
		p.clean = 0
		if p.aliased < math.MaxInt32 {
			p.aliased++
		}
		// A probe retires the standing estimate: the poll it advised aliased.
		d := p.Standing()
		d.Trusted, p.trusted = false, p.trusted && !d.Probe
		return d, nil
	case err != nil && !errors.Is(err, ErrTooShort):
		return Decision{Held: p.held}, err
	}
	p.aliased = 0
	if err != nil || !holdable(rate) {
		p.clean = 0
		return Decision{Held: p.held}, nil
	}
	if p.clean < math.MaxInt32 {
		p.clean++
	}
	d := Decision{Trusted: p.clean >= Persistence || turnover <= 1}
	p.trusted = p.trusted || d.Trusted
	switch {
	case !d.Trusted:
	case rate >= p.held:
		d.Changed = rate != p.held
		p.held, p.peak, p.below = rate, 0, 0
	default:
		p.below++
		p.peak = max(p.peak, rate)
		if int(p.below) >= turnover {
			p.held, p.peak, p.below = p.peak, 0, 0
			d.Changed = true
		}
	}
	d.Held = p.held
	return d, nil
}

// Standing is the decision in force between windows, the one a poll-rate
// advice reads: Aliased and Probe for the current aliased run, Trusted
// while a clean estimate trusted since the last probe and Regrid stands.
func (p *RatePolicy) Standing() Decision {
	return Decision{Held: p.held, Aliased: p.aliased > 0, Probe: p.aliased >= Persistence, Trusted: p.trusted}
}

// CleanStreak returns the length of the current run of clean verdicts.
func (p *RatePolicy) CleanStreak() int { return int(p.clean) }

// AliasStreak returns the length of the current run of aliased verdicts.
func (p *RatePolicy) AliasStreak() int { return int(p.aliased) }

// Held returns the held rate (0 = nothing held yet).
func (p *RatePolicy) Held() float64 { return p.held }

// Below returns how many consecutive trusted estimates under the held
// rate have been counted since it last changed.
func (p *RatePolicy) Below() int { return int(p.below) }

// Restore reinstates a persisted policy: the clean run as it stood, no
// estimate standing, and the held rate with its wait cleared, so only a
// full turnover of fresh estimates lowers it. A rate that is not positive
// and finite holds nothing.
func (p *RatePolicy) Restore(held float64, cleanStreak int) {
	*p = RatePolicy{clean: int32(min(max(cleanStreak, 0), math.MaxInt32))}
	if holdable(held) {
		p.held = held
	}
}

// Regrid is a change of sampling grid: the held rate stays, but no run, no
// lower estimate and no trusted one of the old grid is evidence about the
// new one.
func (p *RatePolicy) Regrid() { p.Restore(p.held, 0) }
