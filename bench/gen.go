// The benchmark's own seeded input generator. It deliberately does not
// use internal/dcsim: a later refactor of the simulator must not be able
// to move the baseline. The daemon sees only the rendered lines.
//
// Series i is base + A1·sin(2π f1 t + φ1) + A2·sin(2π f2 t + φ2), sampled
// at 1 Hz and quantized to two decimals like real telemetry. Both tones
// lie in [1/64, 1/6] Hz, so nothing aliases at 1 Hz and the true Nyquist
// rate 2·max(f1, f2) is known per series.

package main

import (
	"fmt"
	"math"
	"strconv"
)

const (
	// epoch is the Unix second of sample 0 of every series. It is fixed,
	// not seeded: timestamps are part of the wire shape, not of the signal.
	epoch = 1_700_000_000
	// fLo and fHi bound both tones, in hertz.
	fLo = 1.0 / 64
	fHi = 1.0 / 6
	// f2Stride decorrelates the second tone's stratum from the first's:
	// i → i·f2Stride mod n is a permutation for every series count used
	// here (389 is prime and divides none of them).
	f2Stride = 389
)

// rng is splitmix64, written out so the input does not depend on how a
// Go release implements math/rand.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

type tone struct{ amp, freq, phase float64 }

// seriesParams is one series: its id and the signal it carries.
type seriesParams struct {
	id     string
	signal int // index into the fleet's fixed signal set
	base   float64
	t1, t2 tone
}

// generator holds every series' parameters for one (seed, series count).
type generator struct {
	series []seriesParams
}

// signalSeed draws the fleet's signals. It is a constant, not --seed: the
// n signals are part of a workload's shape, like its series count.
const signalSeed = 0x6e797175697374 // "nyquist"

// newGenerator builds the n-series fleet for seed.
//
// The n signals are the same for every seed; the seed decides which
// series (id, hence rack, shard and place in a frame) carries which
// signal, and the order queries go round their targets. So every seed
// sends different bytes and loads the shards differently, while the
// quality and size metrics, which are sums and medians over the whole
// fleet, come out the same. They have to: the estimator's answer for one
// series moves with the tones' phases at the checkpoint, so with signals
// drawn from the seed the fleet median of its error moved by 4–9 % from
// seed to seed (512 series), far more than the 1 % a quality regression
// is held to.
//
// Frequencies are stratified: signal k draws f1 from the k-th of n equal
// log-width strata of [fLo, fHi] and f2 from a permuted stratum, so the
// fleet covers the band evenly whatever n is.
func newGenerator(seed uint64, n int) *generator {
	r := rng(signalSeed)
	signals := make([]seriesParams, n)
	for k := range signals {
		s := &signals[k]
		s.signal = k
		s.base = 30 + 40*r.float()
		u1 := (float64(k) + r.float()) / float64(n)
		u2 := (float64(k*f2Stride%n) + r.float()) / float64(n)
		s.t1 = tone{amp: 2 + 8*r.float(), freq: fLo * math.Pow(fHi/fLo, u1), phase: 2 * math.Pi * r.float()}
		// The second tone carries at least a fifth of the AC energy, so
		// the estimator's energy cut-off cannot ignore it.
		s.t2 = tone{amp: s.t1.amp * (0.5 + 0.5*r.float()), freq: fLo * math.Pow(fHi/fLo, u2), phase: 2 * math.Pi * r.float()}
	}
	// A seeded Fisher–Yates shuffle deals the signals to the series.
	deal := rng(seed)
	for k := n - 1; k > 0; k-- {
		j := int(deal.next() % uint64(k+1))
		signals[k], signals[j] = signals[j], signals[k]
	}
	g := &generator{series: signals}
	rackDigits := max(2, len(strconv.Itoa((n-1)/devicesPerRack)))
	for i := range g.series {
		g.series[i].id = fmt.Sprintf("dash/rack%0*d/dev%02d/temp", rackDigits, i/devicesPerRack, i%devicesPerRack)
	}
	return g
}

// devicesPerRack is the family size `?match=dash/rackNN/*` answers.
const devicesPerRack = 16

// rackPattern is the match pattern of series i's rack.
func (g *generator) rackPattern(i int) string {
	id := g.series[i].id
	return id[:len(id)-len("devNN/temp")] + "*"
}

// truth is the unquantized signal of series i at t seconds after sample 0.
func (g *generator) truth(i int, t float64) float64 {
	s := &g.series[i]
	return s.base +
		s.t1.amp*math.Sin(2*math.Pi*s.t1.freq*t+s.t1.phase) +
		s.t2.amp*math.Sin(2*math.Pi*s.t2.freq*t+s.t2.phase)
}

// centis is sample k of series i in hundredths — what goes on the wire.
// Always positive: base ≥ 30 and the amplitudes sum to at most 20.
func (g *generator) centis(i, k int) int64 {
	return int64(math.Round(g.truth(i, float64(k)) * 100))
}

// value is sample k of series i as the daemon parses it: the float64
// nearest the two-decimal literal, which is exactly centis/100.
func (g *generator) value(i, k int) float64 { return float64(g.centis(i, k)) / 100 }

// nyquistHz is the true Nyquist rate of series i.
func (g *generator) nyquistHz(i int) float64 {
	s := &g.series[i]
	return 2 * math.Max(s.t1.freq, s.t2.freq)
}

// peakToPeak is the largest swing series i's AC part can make.
func (g *generator) peakToPeak(i int) float64 {
	s := &g.series[i]
	return 2 * (s.t1.amp + s.t2.amp)
}

// appendLine renders sample k of series i as one ingest line in the
// shape the daemon's fast parser takes.
func (g *generator) appendLine(dst []byte, i, k int) []byte {
	c := g.centis(i, k)
	dst = append(dst, `{"series":"`...)
	dst = append(dst, g.series[i].id...)
	dst = append(dst, `","ts":`...)
	dst = strconv.AppendInt(dst, epoch+int64(k), 10)
	dst = append(dst, `,"value":`...)
	dst = strconv.AppendInt(dst, c/100, 10)
	dst = append(dst, '.', byte('0'+c/10%10), byte('0'+c%10), '}', '\n')
	return dst
}

// eachSample calls fn with the series index and sample number of every
// line of the idx-th frame of w's stream, in line order: frames walk the
// series groups within a time slab, then move to the next slab, and
// inside a frame each series contributes w.run consecutive samples.
func (w *workload) eachSample(idx int, fn func(i, k int)) {
	groups := w.series / w.frameSeries
	slab, group := idx/groups, idx%groups
	for i := group * w.frameSeries; i < (group+1)*w.frameSeries; i++ {
		for k := slab * w.run; k < (slab+1)*w.run; k++ {
			fn(i, k)
		}
	}
}

// appendFrameLines renders the idx-th frame of w's stream.
func (g *generator) appendFrameLines(dst []byte, w *workload, idx int) []byte {
	w.eachSample(idx, func(i, k int) { dst = g.appendLine(dst, i, k) })
	return dst
}
