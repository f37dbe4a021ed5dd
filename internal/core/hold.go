package core

import "math"

// RetentionHold is the §4.2 asymmetry as a value: a rate that rises on
// the first estimate above it and falls only on sustained evidence. An
// estimate at or above the held rate replaces it at once; a lower one is
// only counted, and once turnover consecutive estimates have all been
// lower the held rate drops to the highest of them. With turnover set to
// the number of estimates it takes to replace every sample of the
// analysis window, the held rate is the highest clean estimate of the
// last window turnover: a lower reading counts as evidence only after
// none of the samples behind the held one remain, so the wander of a
// spectral cut-off across phases of the same window never moves what is
// retained. The zero value holds nothing.
type RetentionHold struct {
	rate, peak float64
	below      int32
}

// holdable reports whether r is a rate a hold may carry: positive and finite.
func holdable(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// Offer feeds one estimate and returns the held rate and whether this
// estimate changed it. Estimates that are not positive and finite are
// ignored. A turnover of one or less follows every estimate.
func (h *RetentionHold) Offer(r float64, turnover int) (rate float64, changed bool) {
	if !holdable(r) {
		return h.rate, false
	}
	if r >= h.rate {
		changed = r != h.rate
		h.rate, h.peak, h.below = r, 0, 0
		return r, changed
	}
	h.below++
	h.peak = max(h.peak, r)
	if int(h.below) < turnover {
		return h.rate, false
	}
	h.rate, h.peak, h.below = h.peak, 0, 0
	return h.rate, true
}

// Rate returns the held rate (0 = nothing held yet).
func (h *RetentionHold) Rate() float64 { return h.rate }

// Below returns how many consecutive estimates under the held rate have
// been counted since it last changed.
func (h *RetentionHold) Below() int { return int(h.below) }

// Reset holds rate with the wait cleared: lower estimates counted so far
// are forgotten, as after a restart or a change of sampling grid. A rate
// that is not positive and finite holds nothing.
func (h *RetentionHold) Reset(rate float64) {
	if !holdable(rate) {
		rate = 0
	}
	*h = RetentionHold{rate: rate}
}

// Persistence is how many consecutive like verdicts make a persistent
// one: a single aliased window among clean ones is usually noise, and a
// clean window sharing most samples with an aliased one certifies little.
const Persistence = 2

// RatePolicy is the §4.2 contract every estimate→retune loop follows, as
// a value fed one verdict per analysis window: only a persistent aliased
// signature raises a poll rate, a clean estimate lowers what is retained
// only on sustained evidence (RetentionHold), and an aliased window never
// tunes anything. The zero value has seen no verdict and holds nothing.
type RatePolicy struct {
	hold           RetentionHold
	clean, aliased int32
}

// Aliased feeds one aliased verdict. It ends the clean run, leaves the
// held rate and its wait alone, and reports whether the signature has
// persisted long enough to probe the poll rate upward.
func (p *RatePolicy) Aliased() (probe bool) {
	p.clean = 0
	p.aliased = min(p.aliased+1, Persistence)
	return p.aliased >= Persistence
}

// Clean feeds one clean estimate and returns the held rate and whether
// this estimate changed it; only a changed rate needs handing to a store.
// turnover is how many estimates replace every sample of the analysis
// window. Disjoint windows (turnover ≤ 1) are trusted from the first
// clean verdict; overlapping ones share samples with the verdict before,
// so the estimate reaches the hold only from the second of a clean run.
// A rate that is not positive and finite is no verdict: both runs restart.
func (p *RatePolicy) Clean(rate float64, turnover int) (held float64, changed bool) {
	p.aliased = 0
	if !holdable(rate) {
		p.clean = 0
	} else if p.clean < math.MaxInt32 {
		p.clean++
	}
	if !p.Trusted(turnover) {
		return p.hold.Rate(), false
	}
	return p.hold.Offer(rate, turnover)
}

// Trusted reports whether the estimate last fed to Clean was offered to
// the hold.
func (p *RatePolicy) Trusted(turnover int) bool {
	return p.clean >= Persistence || (turnover <= 1 && p.clean > 0)
}

// CleanStreak returns the length of the current run of clean verdicts.
func (p *RatePolicy) CleanStreak() int { return int(p.clean) }

// Held returns the held rate (0 = nothing held yet).
func (p *RatePolicy) Held() float64 { return p.hold.Rate() }

// Below returns how many consecutive trusted estimates under the held
// rate have been counted since it last changed.
func (p *RatePolicy) Below() int { return p.hold.Below() }

// Restore reinstates a persisted policy: the clean run as it stood and the
// held rate with its wait cleared, so only a full turnover of fresh
// estimates lowers it.
func (p *RatePolicy) Restore(held float64, cleanStreak int) {
	*p = RatePolicy{clean: int32(min(max(cleanStreak, 0), math.MaxInt32))}
	p.hold.Reset(held)
}

// Regrid is a change of sampling grid: the held rate stays, but no run and
// no lower estimate counted on the old grid is evidence about the new one.
func (p *RatePolicy) Regrid() { p.Restore(p.hold.Rate(), 0) }
