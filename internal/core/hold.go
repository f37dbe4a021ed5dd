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
