package core

import (
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/decimal"
	"repro/internal/dsp"
	"repro/internal/series"
)

// StreamConfig parameterizes a StreamEstimator.
type StreamConfig struct {
	// Interval is the spacing of the incoming polls. Required.
	Interval time.Duration
	// WindowSamples is the sliding analysis window length; zero selects
	// 1024. Windows shorter than MinSamples are rejected, as the batch
	// estimator rejects such traces.
	WindowSamples int
	// EnergyCutoff is the energy fraction threshold; zero selects
	// DefaultEnergyCutoff. Values must lie in (0, 1].
	EnergyCutoff float64
	// EmitEvery is the number of pushes between emitted updates once the
	// window is full; zero selects 1 (an update per poll).
	EmitEvery int
	// Window tapers the mean-removed window before the FFT, exactly as
	// EstimatorConfig.Window does for the batch estimator; nil means
	// rectangular, the paper's plain-FFT method.
	Window dsp.Window
	// Start, when set, anchors update timestamps: sample i is taken to
	// occur at Start + i*Interval.
	Start time.Time
}

func (c StreamConfig) withDefaults() (StreamConfig, error) {
	if c.Interval <= 0 {
		return c, series.ErrBadInterval
	}
	if c.WindowSamples == 0 {
		c.WindowSamples = 1024
	}
	if c.WindowSamples < MinSamples {
		return c, ErrTooShort
	}
	if c.EnergyCutoff == 0 {
		c.EnergyCutoff = DefaultEnergyCutoff
	}
	// Reuse the batch validation for the shared knob.
	if _, err := (EstimatorConfig{EnergyCutoff: c.EnergyCutoff}).withDefaults(); err != nil {
		return c, err
	}
	if c.EmitEvery <= 0 {
		c.EmitEvery = 1
	}
	return c, nil
}

// StreamUpdate is one emission of a streaming estimation: the estimate
// over the window ending at the newest poll and its aliasing verdict. What
// a poll rate should do about them is a RatePolicy's to say.
type StreamUpdate struct {
	// Index is the zero-based index of the newest sample in the stream.
	Index int64
	// Time is the newest sample's timestamp (zero unless StreamConfig
	// carried a Start).
	Time time.Time
	// WindowStart is the timestamp of the oldest sample in the analyzed
	// window (zero unless StreamConfig carried a Start).
	WindowStart time.Time
	// Result is the estimate over the current window; its fields follow
	// the batch Estimator's Result exactly.
	Result *Result
	// Err is ErrAliased when the window carries the aliased signature,
	// mirroring the batch estimator's contract. The Result is still
	// populated (with Aliased set) so consumers can render the window.
	Err error
}

// StreamEstimator is the incremental counterpart of Estimator: it keeps
// the newest WindowSamples polls of a live stream in a ring and derives
// the Nyquist rate and aliasing verdict from one FFT of that window
// whenever an estimate is consumed — at the EmitEvery cadence in Push, or
// on Current. A push that emits nothing is one store into the ring. The
// ring is the only per-stream array: the configuration, the FFT tables
// and the work buffers are shared by every estimator of the same shape,
// so memory is 2, 4 or 8 bytes per window sample and a small header, no
// matter how long the stream runs or how many streams there are.
//
// The ring's samples are 2 or 4 bytes wide while the stream's readings are
// short decimals — what parsed telemetry carries — and 8 otherwise. An
// integer ring holds each sample as its decimal mantissa at the stream's
// exponent e ≤ 12, less the first sample's mantissa mref, and only when
// float64(m)/10^e is the sample bit for bit. The first sample selects 2
// bytes; the first offset past 16 bits widens the ring to 4. A raise of e
// (it only rises) scales every offset and mref, at the ring's width if the
// scaled offsets fit it, else at 4 bytes. The first sample no integer
// width holds (−0, NaN, ±Inf, no exponent, an offset past 32 bits, a raise
// past decimal.MantLimit or one that scales an offset past 32 bits)
// widens the ring to float64 samples of v − ref for good. The width only
// grows. Every form rebuilds the same window bit for bit — a raise keeps
// each sample's mantissa exact — so the form never changes an estimate.
//
// Every estimate is an exact transform of the window, so results match
// the batch Estimator (DetrendMean, the same EstimatorConfig.Window) on
// the same samples to floating-point accuracy. With a nil Window that is
// the paper's §3.2 configuration: the mean subtraction batch performs
// only affects the DC bin under a rectangular window, and both
// estimators exclude DC from the energy budget. Under a taper the mean
// would leak into the low bins, so the window's mean is removed before
// the taper is applied, as batch does.
//
// A StreamEstimator is not safe for concurrent use; shard streams across
// estimators instead (fleet.Scanner does exactly that).
type StreamEstimator struct {
	// eng holds what every stream of this shape shares: window length,
	// cadence, cut-off, taper, FFT plan and scratch.
	eng      *spectral
	interval time.Duration
	start    time.Time
	// ring is WindowSamples samples of width bytes, allocated by the first
	// push: int16 or int32 offsets (slot i holds sample i's mantissa at exp
	// less mref) or float64 (sample i − ref).
	ring unsafe.Pointer
	mref int64
	// ref is subtracted from every pushed value before it enters the
	// analysis. Removing a constant only changes the (excluded) DC bin in
	// exact arithmetic, but without it a large offset — counters and
	// gauges ride on them — scatters eps-level FFT rounding noise across
	// all bins, which an exactly-constant signal would then read as a
	// flat (aliased-looking) spectrum. Anchoring to the first sample
	// keeps the analyzed magnitudes small, the same numerical
	// conditioning the batch estimator gets from subtracting the mean.
	// Set by the first push; a raise rescales mref, never ref.
	ref  float64
	head int // ring slot the next Push overwrites (the oldest sample once warm)
	// count is the total number of polls pushed.
	count int64
	// exp is an integer ring's decimal exponent, width the ring's bytes a
	// sample (SampleBytes).
	exp, width uint8
	// up and memo are the newest emission and its estimate, rewritten in
	// place by every emitting Push (up.Result points at memo). memoAt is
	// the count memo was derived at, so Current right after an emission
	// (every caller that reads a window once gets one at the fill) copies
	// memo instead of transforming the same window again.
	up     StreamUpdate
	memo   Result
	memoAt int64
}

// spectral is what every StreamEstimator of one shape (spectralKey)
// shares: the configuration, the FFT plan, the taper's coefficients and a
// pool of work buffers, so a series holds none of them.
type spectral struct {
	spectralKey
	// plan is nil for window lengths that are not a power of two; those
	// take the one-shot FFT (Bluestein) through dsp.Periodogram.
	plan *dsp.Plan
	// taper holds the window's coefficients; nil for rectangular.
	taper []float64
	pool  sync.Pool // of *psdScratch
}

// psdScratch is one estimate's work area.
type psdScratch struct {
	frame []float64    // the window in time order, oldest sample first
	fft   []complex128 // plan work area
	power []float64    // one-sided PSD
}

// spectralKey identifies a *spectral: a window length, an emission
// cadence, an energy cut-off and a taper's name ("" for rectangular).
type spectralKey struct {
	n, emitEvery int
	cutoff       float64
	taper        string
}

// spectrals maps a spectralKey to its *spectral. Entries are never
// dropped: window lengths, cadences, cut-offs and tapers come from
// configuration, a handful per process. A NaN cut-off, which would never
// find its entry, is refused before it gets here.
var spectrals sync.Map

func spectralFor(c StreamConfig) *spectral {
	n := c.WindowSamples
	key := spectralKey{n: n, emitEvery: c.EmitEvery, cutoff: c.EnergyCutoff}
	if c.Window != nil {
		key.taper = c.Window.Name()
	}
	if e, ok := spectrals.Load(key); ok {
		return e.(*spectral)
	}
	e := &spectral{spectralKey: key}
	if n&(n-1) == 0 {
		e.plan, _ = dsp.NewPlan(n) // a power of two cannot be refused
	}
	if c.Window != nil {
		e.taper = make([]float64, n)
		for i := range e.taper {
			e.taper[i] = c.Window.Coeff(i, n)
		}
	}
	e.pool.New = func() any {
		sc := &psdScratch{frame: make([]float64, n)}
		if e.plan != nil {
			sc.fft = make([]complex128, n/2)
			sc.power = make([]float64, n/2+1)
		}
		return sc
	}
	actual, _ := spectrals.LoadOrStore(key, e)
	return actual.(*spectral)
}

// NewStreamEstimator validates cfg and returns a StreamEstimator.
func NewStreamEstimator(cfg StreamConfig) (*StreamEstimator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &StreamEstimator{eng: spectralFor(c), interval: c.Interval, start: c.Start}, nil
}

// SampleRate returns the configured poll rate in hertz.
func (s *StreamEstimator) SampleRate() float64 { return 1 / s.interval.Seconds() }

// Warm reports whether a full window has been seen, i.e. estimates
// describe real samples only.
func (s *StreamEstimator) Warm() bool { return s.count >= int64(s.eng.n) }

// SampleBytes returns the ring's bytes per window sample: 2 or 4 while
// it holds decimal offsets, 8 once it holds float64 samples (see
// StreamEstimator), and 0 before the first push. It never falls.
func (s *StreamEstimator) SampleBytes() int { return int(s.width) }

// Push ingests one poll. It returns a non-nil update when the window is
// full and the emission cadence hits, nil otherwise. A push that emits
// nothing does no spectral work; an emitting push runs one FFT of the
// window. Neither allocates.
//
// The returned update and its Result belong to the estimator: the next
// emitting Push overwrites both in place. A caller that keeps an
// emission past that copies it (Feed does); Current returns an
// independent Result.
func (s *StreamEstimator) Push(v float64) *StreamUpdate {
	if s.count == 0 {
		s.anchor(v)
	}
	if s.width == 8 || !s.hold(v) {
		view[float64](s.ring, s.eng.n)[s.head] = v - s.ref
	}
	s.head++
	if s.head == s.eng.n {
		s.head = 0
	}
	s.count++
	w := int64(s.eng.n)
	if s.count < w || (s.count-w)%int64(s.eng.emitEvery) != 0 {
		return nil
	}
	return s.emit()
}

// offset is an integer ring's sample type.
type offset interface{ ~int16 | ~int32 }

// view is the ring at p as a slice of n samples of type T: the one way
// the estimator reads or writes its ring.
//
//nyquist:view
func view[T offset | float64](p unsafe.Pointer, n int) []T { return unsafe.Slice((*T)(p), n) }

// newRing allocates a zeroed ring of n samples of type T.
func newRing[T offset | float64](n int) unsafe.Pointer {
	r := make([]T, n)
	return unsafe.Pointer(&r[0])
}

// anchor pins ref to the stream's first sample and allocates the ring in
// the form that sample selects: 2-byte offsets from its own mantissa, or
// float64 samples.
func (s *StreamEstimator) anchor(v float64) {
	s.ref = v
	if m, e, ok := exactFrom(v, 0); ok {
		s.ring, s.width, s.mref, s.exp = newRing[int16](s.eng.n), 2, m, e
		return
	}
	s.ring, s.width = newRing[float64](s.eng.n), 8
}

// exactFrom returns v's mantissa at the lowest exponent from e up that
// holds v bit for bit, or false when none up to decimal.MaxExp does.
func exactFrom(v float64, e uint8) (int64, uint8, bool) {
	for ; e <= decimal.MaxExp; e++ {
		if m, r, ok := decimal.At(v, decimal.Pow10[e]); ok && r == 0 {
			return m, e, true
		}
	}
	return 0, 0, false
}

// hold stores v into an integer ring's head slot, raising the exponent or
// widening the ring to 4 bytes as v needs. When no integer width holds v
// it widens the ring to float64 samples instead and reports false: the
// caller stores v there.
func (s *StreamEstimator) hold(v float64) bool {
	m, e, ok := exactFrom(v, s.exp)
	if ok && e > s.exp {
		ok = s.rescale(e)
	}
	if ok = ok && s.put(m); !ok {
		s.widen()
	}
	return ok
}

// put stores mantissa m into the head slot as an offset from mref,
// widening a 2-byte ring to 4 bytes if the offset needs it, or reports
// false when the offset does not fit 32 bits.
func (s *StreamEstimator) put(m int64) bool {
	off := m - s.mref
	if off != int64(int32(off)) {
		return false
	}
	if s.width == 2 && off != int64(int16(off)) {
		s.resize(4, 1)
	}
	if s.width == 2 {
		view[int16](s.ring, s.eng.n)[s.head] = int16(off)
	} else {
		view[int32](s.ring, s.eng.n)[s.head] = int32(off)
	}
	return true
}

// rescale raises the integer ring's exponent to e: every offset and mref
// gain e − exp zeros, which leaves each sample's float64 unchanged (the
// same real quotient, rounded once), at the ring's width if the raised
// offsets fit it, else at 4 bytes. It changes nothing and reports false
// when they fit no integer width, or when a mantissa would pass
// decimal.MantLimit (a float64 no longer holds it exactly beyond it).
func (s *StreamEstimator) rescale(e uint8) bool {
	k := int64(decimal.Pow10[e-s.exp])
	lim := decimal.MantLimit / k
	lo, hi := s.bounds()
	if s.mref+lo < -lim || s.mref+hi > lim {
		return false
	}
	w := s.width
	if w == 2 && (lo < math.MinInt16/k || hi > math.MaxInt16/k) {
		w = 4
	}
	if lo < math.MinInt32/k || hi > math.MaxInt32/k {
		return false
	}
	s.resize(w, k)
	s.mref *= k
	s.exp = e
	return true
}

// bounds returns the least and greatest offsets in the ring, and 0 — the
// offset of mref itself — whatever the ring holds.
func (s *StreamEstimator) bounds() (lo, hi int64) {
	if s.width == 2 {
		return span(view[int16](s.ring, s.eng.n))
	}
	return span(view[int32](s.ring, s.eng.n))
}

func span[T offset](r []T) (lo, hi int64) {
	for _, o := range r {
		lo, hi = min(lo, int64(o)), max(hi, int64(o))
	}
	return lo, hi
}

// resize rewrites the integer ring at width w ≥ its own, every offset
// multiplied by k.
func (s *StreamEstimator) resize(w uint8, k int64) {
	n, to := s.eng.n, s.ring
	switch {
	case s.width == 2 && w == 2:
		multiply(view[int16](to, n), view[int16](s.ring, n), k)
	case s.width == 2:
		to = newRing[int32](n)
		multiply(view[int32](to, n), view[int16](s.ring, n), k)
	default:
		multiply(view[int32](to, n), view[int32](s.ring, n), k)
	}
	s.ring, s.width = to, w
}

func multiply[D, S offset](dst []D, src []S, k int64) {
	dst = dst[:len(src)]
	for i, o := range src {
		dst[i] = D(int64(o) * k)
	}
}

// widen trades the integer ring for a float64 one holding the same
// samples.
func (s *StreamEstimator) widen() {
	n := s.eng.n
	to := newRing[float64](n)
	s.unpack(view[float64](to, n), 0, n)
	s.ring, s.width = to, 8
}

// unpack writes ring slots [lo, hi) into dst as each sample less ref: for
// an integer ring, exactly the float64 a float64 ring holds for it. It
// must divide: a multiply by 10^−e does not round the same.
func (s *StreamEstimator) unpack(dst []float64, lo, hi int) {
	n := s.eng.n
	switch s.width {
	case 2:
		decode(dst, view[int16](s.ring, n)[lo:hi], s.mref, decimal.Pow10[s.exp], s.ref)
	case 4:
		decode(dst, view[int32](s.ring, n)[lo:hi], s.mref, decimal.Pow10[s.exp], s.ref)
	default:
		copy(dst, view[float64](s.ring, n)[lo:hi])
	}
}

func decode[T offset](dst []float64, offs []T, mref int64, scale, ref float64) {
	dst = dst[:len(offs)]
	if scale == 1 { // whole numbers, counters mostly: x/1 is x
		for i, o := range offs {
			dst[i] = float64(mref+int64(o)) - ref
		}
		return
	}
	for i, o := range offs {
		dst[i] = float64(mref+int64(o))/scale - ref
	}
}

// Feed pushes every value of a trace and returns the emitted updates —
// the streaming replacement for the batch MovingWindow scan. Each
// returned update owns a copy of its Result, so later pushes leave them
// unchanged.
func (s *StreamEstimator) Feed(values []float64) []StreamUpdate {
	var out []StreamUpdate
	for _, v := range values {
		if up := s.Push(v); up != nil {
			res := *up.Result
			out = append(out, *up)
			out[len(out)-1].Result = &res
		}
	}
	return out
}

// Current computes the estimate over the present window without waiting
// for the emission cadence. It returns ErrTooShort until a full window
// has been seen, and ErrAliased (with a populated Result) for windows
// carrying the aliased signature, mirroring the batch Estimate contract.
// The Result is the caller's: no later push changes it.
func (s *StreamEstimator) Current() (*Result, error) {
	if !s.Warm() {
		return nil, ErrTooShort
	}
	res := new(Result)
	if s.memoAt == s.count {
		*res = s.memo
	} else {
		s.estimate(res)
	}
	if res.Aliased {
		return res, ErrAliased
	}
	return res, nil
}

// emit writes the cadence-gated update into s.up.
func (s *StreamEstimator) emit() *StreamUpdate {
	res := &s.memo
	s.estimate(res)
	s.memoAt = s.count
	up := &s.up
	*up = StreamUpdate{Index: s.count - 1, Result: res}
	if !s.start.IsZero() {
		up.Time = s.start.Add(time.Duration(up.Index) * s.interval)
		up.WindowStart = up.Time.Add(-time.Duration(s.eng.n-1) * s.interval)
	}
	if res.Aliased {
		up.Err = ErrAliased
	}
	return up
}

// estimate derives a batch-equivalent Result from the current window
// into res.
func (s *StreamEstimator) estimate(res *Result) {
	fs := s.SampleRate()
	sc := s.eng.pool.Get().(*psdScratch)
	defer s.eng.pool.Put(sc)
	n := s.eng.n
	s.unpack(sc.frame, s.head, n)
	s.unpack(sc.frame[n-s.head:], 0, s.head)
	var mean float64
	if s.eng.taper != nil {
		// Four partial sums: one chain of 256 dependent adds costs more
		// than the taper's multiplies (measured, about 120 ns a refresh).
		var s0, s1, s2, s3 float64
		f := sc.frame
		for ; len(f) >= 4; f = f[4:] {
			s0, s1, s2, s3 = s0+f[0], s1+f[1], s2+f[2], s3+f[3]
		}
		for _, v := range f {
			s0 += v
		}
		mean = ((s0 + s1) + (s2 + s3)) / float64(len(sc.frame))
	}
	power := sc.power
	if s.eng.plan != nil {
		_ = s.eng.plan.PSDInto(power, sc.fft, sc.frame, mean, s.eng.taper) // lengths are fixed by spectralFor
	} else {
		for i, c := range s.eng.taper {
			sc.frame[i] = (sc.frame[i] - mean) * c
		}
		// Refuses only an empty frame or a bad rate; the config rules out
		// both. Batch's window-power normalization scales every bin alike
		// and cancels in the energy fractions below.
		spec, _ := dsp.Periodogram(sc.frame, fs, nil)
		power = spec.Power
	}
	// DC is excluded from the energy budget, matching the batch
	// estimator's default (DetrendMean / !IncludeDC): the cut-off is the
	// first bin at which the energy summed from bin 1 reaches the
	// configured fraction of the total. Bin k sits at k·fs/N.
	df := fs / float64(len(sc.frame))
	last := len(power) - 1
	var total, cum float64
	for _, p := range power[1:] {
		total += p
	}
	bin, captured := 1, 1.0 // no energy off DC: the finest measurable rate
	if !(total <= 0) {
		target := s.eng.cutoff * total
		for bin = 1; ; bin++ {
			if cum += power[bin]; cum >= target || bin == last {
				break
			}
		}
		captured = cum / total
	}
	cutFreq := float64(bin) * df
	*res = Result{
		CutoffFreq:     cutFreq,
		SampleRate:     fs,
		EnergyCaptured: captured,
	}
	if bin >= last || cutFreq >= aliasedGuard*fs/2 {
		res.Aliased = true
		return
	}
	res.NyquistRate = 2 * cutFreq
	res.ReductionRatio = fs / res.NyquistRate
}
