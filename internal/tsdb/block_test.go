package tsdb

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/series"
)

// checkRoundTrip encodes pts and asserts the decode is bit-exact: every
// timestamp the same instant, every value the identical float64 bit
// pattern (NaN payloads included).
func checkRoundTrip(t *testing.T, pts []series.Point) Block {
	t.Helper()
	blk, err := EncodeBlock(pts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if blk.Len() != len(pts) {
		t.Fatalf("block len %d, want %d", blk.Len(), len(pts))
	}
	got, err := blk.Points(nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if !got[i].Time.Equal(pts[i].Time) {
			t.Fatalf("point %d: time %v, want %v", i, got[i].Time, pts[i].Time)
		}
		if math.Float64bits(got[i].Value) != math.Float64bits(pts[i].Value) {
			t.Fatalf("point %d: value bits %x, want %x (%v vs %v)",
				i, math.Float64bits(got[i].Value), math.Float64bits(pts[i].Value),
				got[i].Value, pts[i].Value)
		}
	}
	if len(pts) > 0 {
		if !blk.First().Equal(pts[0].Time) || !blk.Last().Equal(pts[len(pts)-1].Time) {
			t.Fatalf("block bounds [%v, %v], want [%v, %v]",
				blk.First(), blk.Last(), pts[0].Time, pts[len(pts)-1].Time)
		}
	}
	return blk
}

var blockEpoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// TestBlockRoundTripPatterns drives the codec through the timestamp and
// value regimes a serving store actually sees, plus the adversarial
// ones: constant timestamps (duplicate polls), heavy jitter, huge grid
// shifts, constant values, NaN/Inf/denormal values, and single-point
// blocks.
func TestBlockRoundTripPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int, tAt func(i int) time.Time, vAt func(i int) float64) []series.Point {
		pts := make([]series.Point, n)
		for i := range pts {
			pts[i] = series.Point{Time: tAt(i), Value: vAt(i)}
		}
		return pts
	}
	regular := func(step time.Duration) func(int) time.Time {
		return func(i int) time.Time { return blockEpoch.Add(time.Duration(i) * step) }
	}
	cases := map[string][]series.Point{
		"empty":        nil,
		"single":       mk(1, regular(time.Second), func(int) float64 { return 42.5 }),
		"regular-sine": mk(512, regular(30*time.Second), func(i int) float64 { return math.Sin(float64(i) / 40) }),
		"constant-timestamps": mk(64, func(int) time.Time { return blockEpoch },
			func(i int) float64 { return float64(i) }),
		"constant-values": mk(256, regular(time.Second), func(int) float64 { return 99.25 }),
		"ms-jitter": mk(256, func(i int) time.Time {
			return blockEpoch.Add(time.Duration(i)*time.Second + time.Duration(rng.Intn(2_000_001)-1_000_000)*time.Nanosecond)
		}, func(i int) float64 { return float64(i % 7) }),
		"grid-shifts": mk(128, func(i int) time.Time {
			// Alternating 1 s and 1 h deltas: every step is a worst-case
			// delta-of-delta.
			return blockEpoch.Add(time.Duration(i/2)*time.Hour + time.Duration(i%2)*time.Second)
		}, func(i int) float64 { return float64(i) * 1e17 }),
		"special-values": mk(10, regular(time.Minute), func(i int) float64 {
			return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
				math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-310, -1e-310}[i]
		}),
		"extreme-times": {
			{Time: time.Unix(0, math.MinInt64), Value: 1},
			{Time: blockEpoch, Value: 2},
			{Time: time.Unix(0, math.MaxInt64), Value: 3},
		},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, pts) })
	}
}

// TestBlockRoundTripRandom is the property test: random walks over
// random grids with random jitter and value quantization, all bit-exact.
func TestBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		step := time.Duration(1+rng.Intn(3600)) * time.Second / 4
		jitter := int64(0)
		if rng.Intn(2) == 0 {
			jitter = int64(step) / int64(1+rng.Intn(10))
		}
		quant := math.Pow(2, float64(rng.Intn(20)-10))
		if rng.Intn(3) == 0 {
			quant = 0 // full-precision walk
		}
		pts := make([]series.Point, n)
		now := blockEpoch.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
		v := rng.NormFloat64() * 100
		for i := range pts {
			v += rng.NormFloat64()
			val := v
			if quant > 0 {
				val = math.Round(v/quant) * quant
			}
			pts[i] = series.Point{Time: now, Value: val}
			d := int64(step)
			if jitter > 0 {
				d += rng.Int63n(2*jitter+1) - jitter
				if d < 0 {
					d = 0
				}
			}
			now = now.Add(time.Duration(d))
		}
		checkRoundTrip(t, pts)
	}
}

// TestBlockRejectsOutOfOrder pins the ordering contract: a run with a
// decreasing timestamp is refused whole with ErrOutOfOrder, and equal
// timestamps (duplicate polls) are accepted.
func TestBlockRejectsOutOfOrder(t *testing.T) {
	at := func(sec int, v float64) series.Point {
		return series.Point{Time: blockEpoch.Add(time.Duration(sec) * time.Second), Value: v}
	}
	if _, err := EncodeBlock([]series.Point{at(0, 1), at(1, 2), at(0, 3)}); err != ErrOutOfOrder {
		t.Fatalf("out-of-order run: got %v, want ErrOutOfOrder", err)
	}
	checkRoundTrip(t, []series.Point{at(0, 1), at(1, 2), at(1, 4)})
}

// TestBlockRejectsTimeRange pins the UnixNano-representability contract.
func TestBlockRejectsTimeRange(t *testing.T) {
	tooOld := time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
	tooNew := time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, at := range []time.Time{tooOld, tooNew} {
		if _, err := EncodeBlock([]series.Point{{Time: at, Value: 1}}); err != ErrTimeRange {
			t.Fatalf("run at %v: got %v, want ErrTimeRange", at, err)
		}
	}
}

// TestBlockBytesPerPointDiurnal is the acceptance bar: a realistic
// diurnal workload — a quantized daily-rhythm gauge polled on a regular
// grid — compresses to at most 2 bytes per point (a []Point slice costs
// 32).
func TestBlockBytesPerPointDiurnal(t *testing.T) {
	pts := diurnalWorkload(4096)
	blk := checkRoundTrip(t, pts)
	bpp := float64(blk.Size()) / float64(blk.Len())
	t.Logf("diurnal workload: %d points, %d bytes, %.3f bytes/point (%.1fx vs 32-byte Points)",
		blk.Len(), blk.Size(), bpp, 32/bpp)
	if bpp > 2.0 {
		t.Fatalf("compressed diurnal workload costs %.3f bytes/point, want <= 2", bpp)
	}
}

// diurnalWorkload builds the canonical serving-path test signal: a
// diurnal-harmonic gauge (fundamental plus two harmonics) polled every
// 30 s and quantized to the sensor step, the regime the paper treats as
// the telemetry baseline.
func diurnalWorkload(n int) []series.Point {
	const (
		f0    = 1.0 / 86400 // one cycle per day
		step  = 30 * time.Second
		quant = 1.0 / 64 // sensor quantum (power of two keeps mantissas short)
	)
	pts := make([]series.Point, n)
	for i := range pts {
		ts := float64(i) * step.Seconds()
		v := 40 + 8*math.Sin(2*math.Pi*f0*ts) + 3*math.Sin(2*math.Pi*3*f0*ts+1) +
			1.5*math.Sin(2*math.Pi*8*f0*ts+2)
		pts[i] = series.Point{
			Time:  blockEpoch.Add(time.Duration(i) * step),
			Value: math.Round(v/quant) * quant,
		}
	}
	return pts
}

// TestBucketBlockRoundTrip covers the summary-tier codec: regular and
// retuned (width-changing) bucket runs round-trip exactly.
func TestBucketBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(100)
		width := time.Duration(1+rng.Intn(600)) * time.Second
		start := blockEpoch.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		in := make([]bucket, n)
		for i := range in {
			if rng.Intn(20) == 0 {
				width = time.Duration(1+rng.Intn(600)) * time.Second // retune
			}
			lo := rng.NormFloat64() * 10
			in[i] = bucket{
				start: start.UnixNano(),
				end:   start.Add(width).UnixNano(),
				min:   lo,
				max:   lo + rng.Float64()*5,
				sum:   lo * float64(1+rng.Intn(10)),
				count: int64(1 + rng.Intn(32)),
			}
			start = start.Add(width)
		}
		checkBucketRoundTrip(t, in)
	}
	// The summary tier of two-decimal telemetry: min and max are exact
	// decimals, sum is a float accumulation of them, off by a few ulps —
	// the column the residual field exists for.
	pts := twoDecimalGauge(26 * 128)
	in := make([]bucket, 128)
	for i := range in {
		run := pts[26*i : 26*i+26]
		in[i] = bucketOf(rawOf(run[0]))
		for _, p := range run[1:] {
			in[i].merge(bucketOf(rawOf(p)))
		}
		in[i].end = run[25].Time.Add(time.Second).UnixNano()
	}
	bb := checkBucketRoundTrip(t, in)
	xor := len(xorOnlyBucketPayload(in))
	t.Logf("two-decimal tier: %.2f bytes/bucket (XOR chains: %.2f)", float64(bb.size())/128, float64(xor)/128)
	for it := bb.iter(); it.next(); {
		if !it.decimal {
			t.Fatalf("bucket %d sits in an XOR miniblock: min, max and the accumulated sum should take the joint decimal form throughout", it.i-1)
		}
	}
	if bb.size() > 6*128 {
		t.Fatalf("two-decimal tier costs %d bytes, want at most 6 per bucket", bb.size())
	}
	if 2*bb.size() > xor {
		t.Fatalf("two-decimal tier costs %d bytes, more than half its XOR form (%d)", bb.size(), xor)
	}
}

// encodeBucketBlock encodes a whole run at once, a miniblock at a time:
// the reference a block streamed through compBuckets.push is held to.
func encodeBucketBlock(bks []bucket) bucketBlock {
	var s bucketStream
	for ; len(bks) > 0; bks = bks[min(miniLen, len(bks)):] {
		s.add(bks[:min(miniLen, len(bks))])
	}
	return s.blk
}

// miniblocks is how many miniblocks a block of n buckets has.
func miniblocks(n int) int { return (n + miniLen - 1) / miniLen }

// rawOf is the store's view of an in-range point.
func rawOf(p series.Point) rawPoint { return rawPoint{nano: p.Time.UnixNano(), value: p.Value} }

// checkBucketRoundTrip encodes in and asserts the decode is bit-exact.
func checkBucketRoundTrip(t *testing.T, in []bucket) bucketBlock {
	t.Helper()
	sealed := encodeBucketBlock(in)
	var got []bucket
	if err := sealed.each(func(bk bucket) { got = append(got, bk) }); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d buckets, want %d", len(got), len(in))
	}
	var samples int64
	for i := range in {
		a, b := in[i], got[i]
		if a.start != b.start || a.end != b.end ||
			math.Float64bits(a.min) != math.Float64bits(b.min) ||
			math.Float64bits(a.max) != math.Float64bits(b.max) ||
			math.Float64bits(a.sum) != math.Float64bits(b.sum) ||
			a.count != b.count {
			t.Fatalf("bucket %d mismatch:\n got %+v\nwant %+v", i, b, a)
		}
		samples += a.count
	}
	if sealed.samples != samples || sealed.n != len(in) {
		t.Fatalf("block metadata counts %d samples in %d buckets, the run %d in %d", sealed.samples, sealed.n, samples, len(in))
	}
	if len(in) > 0 {
		lastEnd := in[0].end
		for _, b := range in {
			lastEnd = max(lastEnd, b.end)
		}
		if sealed.firstNano != in[0].start || sealed.lastEnd != lastEnd {
			t.Fatalf("block metadata spans [%d, %d), the run [%d, %d)", sealed.firstNano, sealed.lastEnd, in[0].start, lastEnd)
		}
	}
	return sealed
}

// TestBlockIterConcurrent pins the share-safety contract Block promises:
// many goroutines iterating one block see identical, uncorrupted data.
func TestBlockIterConcurrent(t *testing.T) {
	pts := diurnalWorkload(1024)
	blk, err := EncodeBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got, err := blk.Points(nil)
			if err == nil && len(got) != len(pts) {
				err = ErrCorruptBlock
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// xorOnlyPayload is the reference the codec's size bound is stated
// against: the run coded with every value on the XOR chain and no tag
// byte, which is byte for byte the payload format before decimal columns
// existed (payload version 1 in internal/wal).
func xorOnlyPayload(pts []series.Point) []byte {
	var (
		w               bitWriter
		vals            xorState
		last, prevDelta int64
	)
	for i, p := range pts {
		nano, v := p.Time.UnixNano(), math.Float64bits(p.Value)
		if i == 0 {
			w.writeBits(uint64(nano), 64)
			w.writeBits(v, 64)
			vals.prev = v
		} else {
			delta := nano - last
			dodLadder.write(&w, delta-prevDelta)
			vals.write(&w, v)
			prevDelta = delta
		}
		last = nano
	}
	return w.sealed()
}

// xorOnlyBucketPayload is xorOnlyPayload for a bucket run.
func xorOnlyBucketPayload(bks []bucket) []byte {
	var (
		w                                     bitWriter
		mn, mx, sum                           xorState
		last, prevDelta, prevWidth, prevCount int64
	)
	for i, bk := range bks {
		start := bk.start
		width := bk.end - start
		vals := [3]uint64{math.Float64bits(bk.min), math.Float64bits(bk.max), math.Float64bits(bk.sum)}
		if i == 0 {
			w.writeBits(uint64(start), 64)
			w.writeBits(uint64(width), 64)
			for k, s := range []*xorState{&mn, &mx, &sum} {
				w.writeBits(vals[k], 64)
				s.prev = vals[k]
			}
			w.writeBits(uint64(bk.count), 64)
		} else {
			delta := start - last
			dodLadder.write(&w, delta-prevDelta)
			dodLadder.write(&w, width-prevWidth)
			for k, s := range []*xorState{&mn, &mx, &sum} {
				s.write(&w, vals[k])
			}
			dodLadder.write(&w, bk.count-prevCount)
			prevDelta = delta
		}
		last, prevWidth, prevCount = start, width, bk.count
	}
	return w.sealed()
}

// twoDecimalGauge is the benchmark fleet's signal shape (bench/gen.go): a
// two-tone gauge sampled at 1 Hz and quantized to hundredths, built the
// way a parser builds it — the float64 nearest the two-decimal literal.
func twoDecimalGauge(n int) []series.Point {
	pts := make([]series.Point, n)
	for i := range pts {
		ts := float64(i)
		v := 51.3 + 7.5*math.Sin(2*math.Pi*ts/23+0.4) + 4.1*math.Sin(2*math.Pi*ts/61+2.2)
		pts[i] = series.Point{
			Time:  blockEpoch.Add(time.Duration(i) * time.Second),
			Value: math.Round(v*100) / 100,
		}
	}
	return pts
}

// sealedBytes encodes pts in store-sized runs of 128 and sums the
// payloads — per-block headers included, as a store pays them.
func sealedBytes(t *testing.T, pts []series.Point) (bytes int) {
	t.Helper()
	for ; len(pts) > 0; pts = pts[min(128, len(pts)):] {
		bytes += checkRoundTrip(t, pts[:min(128, len(pts))]).Size()
	}
	return bytes
}

// TestBlockBytesPerPointDecimal is the decimal column's bar, beside the
// diurnal one: two-decimal telemetry in 128-point blocks costs at most 2
// bytes per point. Its XOR form costs about 7 — IEEE mantissas of
// hundredths are long, which is what the XOR chain pays for.
func TestBlockBytesPerPointDecimal(t *testing.T) {
	pts := twoDecimalGauge(4096)
	bpp := float64(sealedBytes(t, pts)) / float64(len(pts))
	xor := float64(len(xorOnlyPayload(pts))) / float64(len(pts))
	t.Logf("two-decimal gauge: %.3f bytes/point in 128-point blocks (XOR chain: %.3f)", bpp, xor)
	if bpp > 2.0 {
		t.Fatalf("two-decimal gauge costs %.3f bytes/point, want <= 2", bpp)
	}
	if xor < 2*bpp {
		t.Fatalf("the XOR chain costs %.3f bytes/point on two-decimal data: this workload no longer tells the modes apart", xor)
	}
}

// TestXORColumnIsPayloadV1 pins the format claim internal/wal's version
// handling rests on: when a column stays on the XOR chain, the payload
// is a zero tag byte followed by exactly the pre-decimal payload — so a
// version-1 payload is read by prepending that byte, through the same
// decoder.
func TestXORColumnIsPayloadV1(t *testing.T) {
	pts := diurnalWorkload(128)
	blk := checkRoundTrip(t, pts)
	v1 := xorOnlyPayload(pts)
	if blk.Data()[0] != 0 || !bytes.Equal(blk.Data()[1:], v1) {
		t.Fatalf("a 1/64-quantized run did not seal as tag 0 + its XOR payload (%d bytes vs %d)", blk.Size(), len(v1))
	}
	re, err := RebuildBlock(append([]byte{0}, v1...), len(pts))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Points(nil)
	if err != nil || len(got) != len(pts) {
		t.Fatalf("v1 payload decoded to %d points, %v", len(got), err)
	}
	for i := range pts {
		if !got[i].Time.Equal(pts[i].Time) || math.Float64bits(got[i].Value) != math.Float64bits(pts[i].Value) {
			t.Fatalf("point %d differs through the v1 path", i)
		}
	}
}

// TestBlockNeverLargerThanXOR is the fallback rule as a property: over
// every simulator regime, random floats, the diurnal workload and
// two-decimal telemetry, a sealed raw block is at most its tag byte
// larger than the run's XOR form, and a bucket block built from the same
// run at most two bytes per miniblock larger than its own (the header
// byte, and the padding to the next byte boundary).
func TestBlockNeverLargerThanXOR(t *testing.T) {
	runs := map[string][]series.Point{
		"diurnal":     diurnalWorkload(512),
		"two-decimal": twoDecimalGauge(512),
	}
	rng := rand.New(rand.NewSource(11))
	random := make([]series.Point, 512)
	for i := range random {
		random[i] = series.Point{Time: blockEpoch.Add(time.Duration(i) * time.Second), Value: math.Float64frombits(rng.Uint64())}
	}
	runs["random-bits"] = random
	for _, name := range dcsim.ScenarioNames() {
		sc, err := dcsim.BuildScenario(name, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range sc.Fleet.Devices {
			runs[name+"/"+d.ID] = d.Trace(blockEpoch, sc.PhaseOffset[i], 300*d.PollInterval).Series().Points()
		}
	}
	for name, pts := range runs {
		for ; len(pts) > 0; pts = pts[min(128, len(pts)):] {
			run := pts[:min(128, len(pts))]
			blk := checkRoundTrip(t, run)
			if xor := len(xorOnlyPayload(run)); blk.Size() > xor+1 {
				t.Fatalf("%s: raw block is %d bytes, its XOR form %d", name, blk.Size(), xor)
			}
			// Fold the run four points to a bucket, as a first tier would.
			var bks []bucket
			for i := 0; i+4 <= len(run); i += 4 {
				b := bucketOf(rawOf(run[i]))
				for _, p := range run[i+1 : i+4] {
					b.merge(bucketOf(rawOf(p)))
				}
				b.end = run[i+3].Time.UnixNano() + 1
				bks = append(bks, b)
			}
			if len(bks) == 0 {
				continue
			}
			bb := checkBucketRoundTrip(t, bks)
			if xor := len(xorOnlyBucketPayload(bks)); bb.size() > xor+2*miniblocks(len(bks)) {
				t.Fatalf("%s: bucket block of %d miniblocks is %d bytes, its XOR form %d", name, miniblocks(len(bks)), bb.size(), xor)
			}
		}
	}
}
