package core_test

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
)

// FuzzStreamCompactMatchesWide drives a stream and one widened from its
// first push (core.NewWidenedStream) with the same samples and requires
// every emission and every Current to agree bit for bit: the integer
// rings — their exponent raises, their 16- and 32-bit edges and every
// widening — must rebuild exactly the window a float64 ring holds.
//
// data[0] picks the shape (window 16, 17 or 32; EmitEvery 1–4; Hann or
// rectangular); the rest is 9-byte records, a kind byte and 8 payload
// bytes:
//
//	0     a parsed decimal literal: a mantissa of up to 40 bits at an
//	      exponent 0–13 (13 fits no exponent the ring holds)
//	1     raw float64 bits
//	2     a step of the previous literal at one more decimal
//	3     the first literal's mantissa ± 2^31 (± 2^15 with payload bit 1
//	      set) ± a small step, at the highest exponent so far: offsets
//	      from the first anchor at and just past the 32- and 16-bit edges
//	4     NaN, −0, +0 or ±Inf
//	5     the previous literal plus a signed 32-bit step at its exponent:
//	      drifts
func FuzzStreamCompactMatchesWide(f *testing.F) {
	rec := func(kind byte, payload uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, payload)
	}
	seed := func(shape byte, recs ...[]byte) []byte {
		out := []byte{shape}
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// Hundredths of a slow tone: a window whose estimate moves in every
	// bit when one sample is off by an ulp.
	var twoDec [][]byte
	for i := 0; i < 40; i++ {
		twoDec = append(twoDec, rec(0, uint64(4800+math.Round(300*math.Sin(float64(i)/3)))|2<<56))
	}
	f.Add(seed(0, twoDec...))
	head, tail := twoDec[:20:20], twoDec[20:] // appending to head copies it
	f.Add(seed(1, append(append([][]byte{rec(0, 7)}, head...), rec(2, 3), rec(2, 9), rec(2, 1))...))
	// A tone just inside the int32 edge above the first sample's mantissa,
	// one sample past it, then the edge below.
	edges := [][]byte{rec(0, 4801|2<<56), rec(3, 0), rec(3, 1)}
	for i := 0; i < 40; i++ {
		step := int8(-60 + math.Round(50*math.Sin(float64(i)/3)))
		if i == 24 {
			step = 1
		}
		edges = append(edges, rec(3, uint64(uint8(step))<<8))
	}
	f.Add(seed(0, append(edges, rec(3, 0xfe<<8|1))...))
	// Whole numbers, then five raises: the fifth scales the offsets past
	// int32.
	var wholes [][]byte
	for i := 0; i < 40; i++ {
		wholes = append(wholes, rec(0, uint64(150000+math.Round(100000*math.Sin(float64(i)/3)))))
		if i == 20 {
			wholes = append(wholes, rec(2, 3), rec(2, 1), rec(2, 4), rec(2, 1), rec(2, 5))
		}
	}
	f.Add(seed(0, wholes...))
	// A flat 10^12, then 10^−12: a raise the offsets allow and the first
	// sample's mantissa does not.
	var large [][]byte
	for i := 0; i < 40; i++ {
		large = append(large, rec(0, uint64(1e12+math.Round(1000*math.Sin(float64(i)/3))*float64(min(i/20, 1)))))
		if i == 19 {
			large = append(large, rec(0, 1|12<<56))
		}
	}
	f.Add(seed(0, large...))
	f.Add(seed(3, append([][]byte{rec(4, 0)}, twoDec[:24]...)...))
	f.Add(seed(4, append(append(head, rec(4, 1), rec(4, 3)), tail...)...))
	f.Add(seed(3, append(append(head, rec(1, math.Float64bits(math.Nextafter(48.15, 49)))), tail...)...))
	f.Add(seed(6, append(append(head, rec(1, math.Float64bits(math.Pi))), tail...)...))
	// The same tone at the 16-bit edges: one sample past the upper one
	// widens the ring to 4 bytes, and the last, two past the lower edge,
	// lands in it.
	edges16 := [][]byte{rec(0, 4801|2<<56), rec(3, 2), rec(3, 3)}
	for i := 0; i < 40; i++ {
		step := int8(-60 + math.Round(50*math.Sin(float64(i)/3)))
		if i == 24 {
			step = 1
		}
		edges16 = append(edges16, rec(3, uint64(uint8(step))<<8|2))
	}
	f.Add(seed(0, append(edges16, rec(3, 0xfe<<8|3))...))
	// Hundredths drifting 3 to 4 a sample: past the 16-bit edge of the
	// first sample after about 90 samples, in the middle of a window.
	drift := [][]byte{rec(0, 2000|2<<56)}
	for i := 0; i < 120; i++ {
		drift = append(drift, rec(5, uint64(uint32(int32(300+math.Round(100*math.Sin(float64(i)/2)))))))
	}
	f.Add(seed(8, drift...))
	// Whole numbers ±5000 around 6000, then a tenth: the raise scales the
	// offsets past 16 bits, not past 32.
	var raise16 [][]byte
	for i := 0; i < 40; i++ {
		raise16 = append(raise16, rec(0, uint64(6000+math.Round(5000*math.Sin(float64(i)/3)))))
		if i == 20 {
			raise16 = append(raise16, rec(2, 3))
		}
	}
	f.Add(seed(0, raise16...))
	// A counter at 10^9 climbing 2 to 3·10^7 a sample: past 2^31 from its
	// first sample after about 90, while 16 samples span under 2^30; the
	// ring goes 2 → 4 → 8.
	counter := [][]byte{rec(0, 1_000_000_000)}
	for i := 0; i < 100; i++ {
		counter = append(counter, rec(5, uint64(uint32(int32(25_000_000+math.Round(5_000_000*math.Sin(float64(i))))))))
	}
	f.Add(seed(0, counter...))
	// A first sample of 2·10^9 the window then leaves for a flat 0, and a
	// raise by 12 decimals the window's spread allows and the first
	// sample's mantissa does not.
	wrap := [][]byte{rec(0, 2_000_000_000)}
	for i := 0; i < 40; i++ {
		wrap = append(wrap, rec(0, 0))
	}
	for i := 0; i < 20; i++ {
		wrap = append(wrap, rec(0, uint64(1+i%3)|12<<56))
	}
	f.Add(seed(0, wrap...))
	// A tone of whole numbers within ±3,000 with one 3,500 that lands in
	// ring slot 0, then a tenth while it is still in the window: the raise
	// must scale slot 0 past 16 bits too.
	slot0 := [][]byte{rec(0, 0)}
	for i := 1; i < 30; i++ {
		v := int64(math.Round(3000 * math.Sin(2*math.Pi*float64(i)/16)))
		if i == 16 {
			v = 3500
		}
		slot0 = append(slot0, rec(0, uint64(v)&(1<<40-1)))
		if i == 21 {
			slot0 = append(slot0, rec(2, 5))
		}
	}
	f.Add(seed(0, slot0...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		shape := data[0]
		cfg := core.StreamConfig{
			Interval:      time.Second,
			WindowSamples: []int{16, 17, 32}[shape%3],
			EmitEvery:     1 + int(shape>>2%4),
		}
		if shape&0x10 != 0 {
			cfg.Window = dsp.Hann{}
		}
		var vals []float64
		var firstM, lastM int64
		var firstE, lastE, topE int
		literal := func(m int64, e int) float64 {
			for e > 0 && m%10 == 0 { // the lowest exponent, as the ring picks it
				m, e = m/10, e-1
			}
			s := strconv.FormatInt(m, 10)
			if e > 0 {
				neg := m < 0
				if neg {
					s = s[1:]
				}
				for len(s) <= e {
					s = "0" + s
				}
				s = s[:len(s)-e] + "." + s[len(s)-e:]
				if neg {
					s = "-" + s
				}
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("literal %q: %v", s, err)
			}
			if len(vals) == 0 {
				firstM, firstE = m, e
			}
			lastM, lastE = m, e
			if e <= 12 {
				topE = max(topE, e)
			}
			return v
		}
		for r := data[1:]; len(r) >= 9; r = r[9:] {
			p := binary.LittleEndian.Uint64(r[1:])
			var v float64
			switch r[0] % 6 {
			case 0:
				v = literal(int64(p<<24)>>24, int(p>>56%14))
			case 1:
				v = math.Float64frombits(p)
			case 2:
				v = literal(lastM*10+int64(int8(p)), lastE+1)
			case 3:
				edge := int64(math.MaxInt32)
				if p&2 != 0 {
					edge = math.MaxInt16
				}
				if p&1 != 0 {
					edge = -edge - 1
				}
				k := int64(1)
				for e := firstE; e < topE; e++ {
					k *= 10
				}
				v = literal(firstM*k+edge+int64(int8(p>>8)), topE)
			case 4:
				v = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}[p%5]
			case 5:
				v = literal(lastM+int64(int32(p)), lastE)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return
		}
		compact, err := core.NewStreamEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := core.NewWidenedStream(cfg, vals[0])
		if err != nil {
			t.Fatal(err)
		}
		compact.Push(vals[0])
		for i, v := range vals[1:] {
			cu, wu := compact.Push(v), wide.Push(v)
			if (cu == nil) != (wu == nil) {
				t.Fatalf("sample %d: compact emitted %v, wide %v", i+1, cu != nil, wu != nil)
			}
			if cu != nil {
				if cu.Index != wu.Index || cu.Err != wu.Err {
					t.Fatalf("sample %d: compact update %+v, wide %+v", i+1, *cu, *wu)
				}
				requireSameBits(t, "emission", i+1, cu.Result, wu.Result)
			}
			cr, cerr := compact.Current()
			wr, werr := wide.Current()
			if cerr != werr {
				t.Fatalf("sample %d: Current err compact %v, wide %v", i+1, cerr, werr)
			}
			if cr != nil || wr != nil {
				requireSameBits(t, "Current", i+1, cr, wr)
			}
		}
		if wide.SampleBytes() != 8 {
			t.Fatal("the widened reference is not wide")
		}
	})
}

func requireSameBits(t *testing.T, what string, i int, got, want *core.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("sample %d: %s result compact %v, wide %v", i, what, got, want)
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"NyquistRate", got.NyquistRate, want.NyquistRate},
		{"CutoffFreq", got.CutoffFreq, want.CutoffFreq},
		{"SampleRate", got.SampleRate, want.SampleRate},
		{"ReductionRatio", got.ReductionRatio, want.ReductionRatio},
		{"EnergyCaptured", got.EnergyCaptured, want.EnergyCaptured},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			t.Fatalf("sample %d: %s %s compact %016x, wide %016x", i, what, f.name, math.Float64bits(f.g), math.Float64bits(f.w))
		}
	}
	if got.Aliased != want.Aliased {
		t.Fatalf("sample %d: %s Aliased compact %v, wide %v", i, what, got.Aliased, want.Aliased)
	}
}
