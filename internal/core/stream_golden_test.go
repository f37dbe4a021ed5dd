package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dsp"
)

// The stream differential: seeded streams through the estimator, rendered
// as every emission's Result fields as float64 bits and two off-cadence
// Current reads, and compared byte for byte with dumps older builds wrote:
// how the window holds its samples is invisible in every estimate.
// stream.golden (streamScript) was written by commit 2500ede, the last
// build whose window was a ring of float64 samples; stream_transitions.golden
// (transitionScript) by commit 9be7c49, the last build whose integer ring
// was one width anchored at the first sample. Both have since lost the
// alias streak and suggested interval columns the stream no longer
// computes (sed -E 's/ streak=[0-9]+ suggest=-?[0-9]+//' on the older
// file), which leaves every estimate column as those builds wrote it. The
// file uses only exported names, so it compiles at both:
//
//	NYQ_GOLDEN_DIR=<dir> go test ./internal/core -run TestStreamDifferential
//
// writes both dumps into <dir> instead of comparing.

type scriptStream struct {
	name string
	vals []float64
}

// streamScript builds every stream's samples from one seed. Each stream
// stresses one way the window could hold a value.
func streamScript() []scriptStream {
	const n = 512
	rng := rand.New(rand.NewSource(29))
	var out []scriptStream
	add := func(name string, f func(i int) float64) {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		out = append(out, scriptStream{name, vals})
	}
	// The end-to-end benchmark's generator: two tones on a base, rounded
	// to hundredths and parsed back, i.e. centis/100.
	base, a1, a2 := 30+40*rng.Float64(), 2+8*rng.Float64(), 1+4*rng.Float64()
	f1, f2, p1, p2 := 0.004+0.02*rng.Float64(), 0.03+0.1*rng.Float64(), 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	centis := func(i int) float64 {
		t := float64(i)
		return math.Round((base + a1*math.Sin(2*math.Pi*f1*t+p1) + a2*math.Sin(2*math.Pi*f2*t+p2)) * 100)
	}
	add("two-decimal", func(i int) float64 { return centis(i) / 100 })
	// An integer byte counter far from zero.
	counter := 7_340_032_000.0
	add("counter", func(int) float64 { counter += float64(rng.Intn(5000)); return counter })
	// Whole numbers, then tenths, then thousandths, then millionths: each
	// raise lands in the middle of a full window.
	add("raise", func(i int) float64 {
		switch {
		case i < 280:
			return float64(rng.Intn(200))
		case i < 340:
			return float64(rng.Intn(2000)) / 10
		case i < 420:
			return float64(rng.Intn(200000)) / 1000
		}
		return float64(rng.Intn(200_000_000)) / 1e6
	})
	// Offsets from the first sample at both int32 edges, then one past.
	add("int32-edge", func(i int) float64 {
		switch {
		case i == 0:
			return 5
		case i == 400:
			return 5 + math.MaxInt32 + 1
		case i%3 == 0:
			return 5 + math.MaxInt32 - float64(rng.Intn(3))
		case i%3 == 1:
			return 5 + math.MinInt32 + float64(rng.Intn(3))
		}
		return float64(rng.Intn(1000))
	})
	// Offsets that fit as whole numbers but not once a raise scales them.
	add("raise-past-int32", func(i int) float64 {
		if i == 330 {
			return 123456.0001
		}
		return float64(rng.Intn(300_000))
	})
	// Floats that no exponent up to 12 holds, from the first sample.
	add("float-first", func(i int) float64 {
		return 50 + 5*math.Sin(float64(i)/11) + rng.NormFloat64()
	})
	// Two-decimal values with one float sum of decimals in the middle.
	tenth := 0.1
	add("float-mid", func(i int) float64 {
		if i == 300 {
			return tenth + 0.2
		}
		return centis(i) / 100
	})
	// NaN in the middle: every window holding it is NaN.
	add("nan-mid", func(i int) float64 {
		if i == 270 {
			return math.NaN()
		}
		return centis(i) / 100
	})
	// −0 in the middle of values around zero, +0 among them.
	add("negzero-mid", func(i int) float64 {
		if i == 300 {
			return math.Copysign(0, -1)
		}
		return float64(int(math.Round(200*math.Sin(float64(i)/7)))) / 100
	})
	add("nan-first", func(i int) float64 {
		if i == 0 {
			return math.NaN()
		}
		return centis(i) / 100
	})
	add("negzero-first", func(i int) float64 {
		if i == 0 {
			return math.Copysign(0, -1)
		}
		return centis(i) / 100
	})
	return out
}

// transitionScript builds streams that move between the ring's widths:
// offsets at the 16-bit edges, gauges and counters that drift out of the
// width they hold by more than a window spans, raises that scale offsets
// past 16 bits, and a widening through every width. They run twice as long
// as streamScript's so that a counter can drift past 2^31 in steps a
// window spans less of.
func transitionScript() []scriptStream {
	const n = 1024
	rng := rand.New(rand.NewSource(30))
	var out []scriptStream
	add := func(name string, f func(i int) float64) {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		out = append(out, scriptStream{name, vals})
	}
	wave := func(i int) float64 { return math.Sin(float64(i)/9) + 0.5*math.Sin(float64(i)/2.3) }
	// Whole numbers at both 16-bit edges of the first sample, then one
	// past.
	add("int16-edges", func(i int) float64 {
		switch {
		case i == 0:
			return 100
		case i == 600:
			return 100 + math.MaxInt16 + 1
		case i%3 == 0:
			return 100 + math.MaxInt16 - float64(rng.Intn(3))
		case i%3 == 1:
			return 100 + math.MinInt16 + float64(rng.Intn(3))
		}
		return float64(100 + rng.Intn(1000))
	})
	// Hundredths drifting 0.45 a sample, up and down, under a ±3 wave.
	add("rising-gauge", func(i int) float64 {
		return math.Round(2000+45*float64(i)+300*wave(i)) / 100
	})
	add("sinking-gauge", func(i int) float64 {
		return math.Round(-1500-45*float64(i)+300*wave(i)) / 100
	})
	// A packet counter far from zero, 40 a sample on average.
	packets := 9_000_000_000.0
	add("counter-int16", func(int) float64 { packets += float64(rng.Intn(80)); return packets })
	// Whole numbers, then tenths ten times the spread, then hundredths.
	add("raise-past-int16", func(i int) float64 {
		switch {
		case i < 300:
			return float64(1000 + rng.Intn(10000) - 5000)
		case i < 700:
			return float64(10000+rng.Intn(100000)-50000) / 10
		}
		return float64(100000+rng.Intn(1000000)-500000) / 100
	})
	// Tenths around 400 after a first sample of 0, then one hundredth: the
	// raise takes the offsets from the first sample past 16 bits, though
	// the window spans little.
	add("raise-rebase", func(i int) float64 {
		switch {
		case i == 0:
			return 0
		case i == 500:
			return 400.05
		}
		return float64(4000+rng.Intn(100)-50) / 10
	})
	// A byte counter 3e6 a sample on average: past 2^31 from its first
	// sample at sample 684, while a window spans under 2^30.
	bytes := 1e12
	add("counter-past-int32", func(int) float64 { bytes += float64(rng.Int63n(6_000_000)); return bytes })
	// Hundredths, then a reading far above them, then a float.
	add("two-four-eight", func(i int) float64 {
		switch {
		case i == 300:
			return 50000
		case i == 600:
			return math.Pi
		}
		return math.Round(4800+300*wave(i)) / 100
	})
	return out
}

func streamDumpResult(w *strings.Builder, r *Result) {
	fmt.Fprintf(w, "nyq=%016x cut=%016x fs=%016x rr=%016x ec=%016x aliased=%t",
		math.Float64bits(r.NyquistRate), math.Float64bits(r.CutoffFreq), math.Float64bits(r.SampleRate),
		math.Float64bits(r.ReductionRatio), math.Float64bits(r.EnergyCaptured), r.Aliased)
}

// streamPlay runs every stream under the serving shape (256 samples, Hann,
// a refresh every 8) and a rectangular window whose length is not a power
// of two.
func streamPlay(t *testing.T, script []scriptStream) string {
	t.Helper()
	var w strings.Builder
	for _, shape := range []struct {
		name         string
		window, emit int
		taper        dsp.Window
	}{{"hann-256-8", 256, 8, dsp.Hann{}}, {"rect-100-13", 100, 13, nil}} {
		for _, s := range script {
			st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: shape.window, EmitEvery: shape.emit, Window: shape.taper})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range s.vals {
				if up := st.Push(v); up != nil {
					fmt.Fprintf(&w, "%s %s %d ", shape.name, s.name, up.Index)
					streamDumpResult(&w, up.Result)
					w.WriteString("\n")
				}
				if i == 301 || i == len(s.vals)-1 {
					res, err := st.Current()
					fmt.Fprintf(&w, "%s %s current %d err=%v ", shape.name, s.name, i, err)
					streamDumpResult(&w, res)
					w.WriteString("\n")
				}
			}
		}
	}
	return w.String()
}

func TestStreamDifferential(t *testing.T) {
	for _, g := range []struct {
		file   string
		script []scriptStream
	}{{"stream.golden", streamScript()}, {"stream_transitions.golden", transitionScript()}} {
		got := streamPlay(t, g.script)
		if dir := os.Getenv("NYQ_GOLDEN_DIR"); dir != "" {
			if err := os.WriteFile(filepath.Join(dir, g.file), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s: differs from the parent build's dump at line %d:\n got %q\nwant %q", g.file, i+1, gl[i], append(wl, "")[min(i, len(wl))])
			}
		}
		if len(gl) != len(wl) {
			t.Fatalf("%s: dump has %d lines, the parent build's %d", g.file, len(gl), len(wl))
		}
	}
}
