package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/decimal"
	"repro/internal/series"
)

// FuzzQueryRange drives a small, aggressively compacting DB through
// random interleavings of appends, retention retunes (which cascade raw
// samples through the tiers) and range queries, and checks the query
// contract on every step:
//
//   - timestamps are monotonically non-decreasing after tier stitching,
//   - no returned point starts at or after the window's end,
//   - only bucket summaries (whose [start, end) coverage may legitimately
//     straddle the window start) ever carry timestamps before `from`;
//     raw samples are strictly in-window,
//   - a point budget is never exceeded, and Thinned is set iff it bit.
//
// The first input byte selects the engine configuration — bit 0 picks
// raw block length 1 vs 2 (CompressBlock; the raw capacity of 8 allows
// at most 2), bit 1 enables the decoded-block cache — so all
// configurations face the same interleavings under the same contract
// (the cache must be invisible to results, including across retention
// evictions).
func FuzzQueryRange(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x42, 0x02, 0x80, 0x03, 0x00, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03, 0x07})
	f.Add([]byte("append-cascade-query-interleaving"))
	f.Add([]byte("Compressed-cascade-query-interleaving"))
	// Block length 2 + cached (first byte 0x03), with queries (op 3) hitting
	// the same windows twice so the second read serves from the cache.
	f.Add([]byte{0x03, 0x00, 0x10, 0x01, 0x07, 0x00, 0x20, 0x03, 0x06, 0x03, 0x06, 0x03, 0x0c})
	// Cached with reconstruct-style budgets and retention churn (op 0
	// floods force evictions → invalidations).
	f.Add([]byte{0x03, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x03, 0x03, 0x00, 0xff, 0x03, 0x09})

	f.Fuzz(func(t *testing.T, data []byte) {
		compress, cacheBytes := 1, int64(0)
		if len(data) > 0 {
			if data[0]%2 == 1 {
				compress = 2
			}
			if (data[0]>>1)%2 == 1 {
				cacheBytes = 1 << 20
			}
			data = data[1:]
		}
		db := New(Config{
			Shards:     2,
			CacheBytes: cacheBytes,
			// Tiny capacities so a short op stream reaches the cascade
			// and the last tier's forgetting path.
			Retention: RetentionConfig{
				RawCapacity: 8, TierCapacity: 4, Tiers: 2, CompressBlock: compress,
			},
		})
		const id = "fuzz/series"
		epoch := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
		now := epoch
		var appended int

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0: // append one point, time advancing 1..256 s
				now = now.Add(time.Duration(1+int(arg)) * time.Second)
				// The clock only moves forward, so a rejection is a finding.
				if err := db.Append(id, series.Point{Time: now, Value: float64(int8(arg))}); err != nil {
					t.Fatalf("in-order append at %v: %v", now, err)
				}
				appended++
			case 1: // append a uniform block of up to 8 samples
				n := 1 + int(arg%8)
				vals := make([]float64, n)
				for k := range vals {
					vals[k] = float64(arg) + float64(k)
				}
				u := &series.Uniform{
					Start:    now.Add(time.Second),
					Interval: time.Duration(1+int(arg%4)) * time.Second,
					Values:   vals,
				}
				if err := db.AppendUniform(id, u); err != nil {
					t.Fatalf("in-order uniform append from %v: %v", u.Start, err)
				}
				now = now.Add(time.Duration(n*(1+int(arg%4))) * time.Second)
				appended += n
			case 2: // retune retention from a pseudo-Nyquist estimate
				rate := 1.0 / float64(1+int(arg))
				db.SetNyquistRate(id, rate)
			case 3: // query a window derived from the op stream
				if appended == 0 {
					continue
				}
				span := now.Sub(epoch)
				from := epoch.Add(span * time.Duration(arg%16) / 16)
				to := from.Add(span/time.Duration(1+arg%8) + time.Second)
				budget := 0
				if arg%3 == 0 {
					budget = 1 + int(arg%32)
				}
				res, err := db.Query(id, from, to, budget)
				if err != nil {
					t.Fatalf("query [%v, %v): %v", from, to, err)
				}
				checkQueryResult(t, res, from, to, budget)
				// The pattern fan-in must answer the same window under the
				// same contract (one series stored → at most one result).
				mres := db.QueryMatch("fuzz/*", from, to, budget, 4)
				if mres.Matches > 1 || len(mres.Results) != mres.Matches {
					t.Fatalf("match: %d matches, %d results for a single stored series", mres.Matches, len(mres.Results))
				}
				for _, r := range mres.Results {
					checkQueryResult(t, r, from, to, budget)
				}
			}
		}
		// Full must obey the same ordering contract.
		if appended > 0 {
			res, err := db.Full(id)
			if err != nil {
				t.Fatalf("full: %v", err)
			}
			checkQueryResult(t, res, time.Time{}, time.Time{}, 0)
		}
	})
}

func checkQueryResult(t *testing.T, res *QueryResult, from, to time.Time, budget int) {
	t.Helper()
	// Aggregates carry the (unthinned) bucket points; any stitched point
	// not on that grid came from the raw store and must be strictly
	// in-window.
	bucketTimes := make(map[time.Time]bool, len(res.Aggregates))
	for _, a := range res.Aggregates {
		bucketTimes[a.Time] = true
	}
	var prev time.Time
	for i, p := range res.Points {
		if i > 0 && p.Time.Before(prev) {
			t.Fatalf("point %d at %v precedes point %d at %v — non-monotonic stitch", i, p.Time, i-1, prev)
		}
		prev = p.Time
		if !to.IsZero() && !p.Time.Before(to) {
			t.Fatalf("point %d at %v at/after window end %v", i, p.Time, to)
		}
		if !from.IsZero() && p.Time.Before(from) && !bucketTimes[p.Time] {
			t.Fatalf("raw point %d at %v before window start %v", i, p.Time, from)
		}
	}
	if budget > 0 {
		if len(res.Points) > budget {
			t.Fatalf("query returned %d points over the %d budget", len(res.Points), budget)
		}
		if res.Thinned && len(res.Points) != budget {
			t.Fatalf("thinned result has %d points, budget %d — thinning must hit the budget exactly", len(res.Points), budget)
		}
	}
	prev = time.Time{}
	for i, a := range res.Aggregates {
		if i > 0 && a.Time.Before(prev) {
			t.Fatalf("aggregate %d at %v precedes aggregate %d — non-monotonic", i, a.Time, i-1)
		}
		prev = a.Time
		if a.Count <= 0 {
			t.Fatalf("aggregate %d summarizes %d samples", i, a.Count)
		}
		if a.Min > a.Max || a.Mean < a.Min || a.Mean > a.Max {
			t.Fatalf("aggregate %d min/mean/max inconsistent: %v/%v/%v", i, a.Min, a.Mean, a.Max)
		}
	}
}

// blockFuzzRecord is one 12-byte FuzzBlockRoundTrip record: a flag byte,
// a 3-byte gap and 8 value bytes.
func blockFuzzRecord(flags byte, gap uint32, value uint64) []byte {
	rec := []byte{flags, byte(gap >> 16), byte(gap >> 8), byte(gap)}
	return binary.BigEndian.AppendUint64(rec, value)
}

// decimalFuzzValue is the value a record with the decimal flag carries:
// exponent byte 0 (mod 13), then a signed 56-bit mantissa.
func decimalFuzzValue(exp byte, mant int64) uint64 {
	return uint64(exp)<<56 | uint64(mant)&(1<<56-1)
}

// FuzzBlockRoundTrip drives the point codec with fuzzer-chosen timestamp
// gaps (spanning nanosecond jitter to decade shifts, including deliberate
// out-of-order attempts) and values, and checks the codec's whole
// contract:
//
//   - an ordered run decodes back bit-exactly (same UnixNano instant,
//     identical value bits — NaN payloads included), straight from the
//     encoder and again through RebuildBlock,
//   - a run with a decreasing timestamp is refused with ErrOutOfOrder,
//   - block metadata (Len, First, Last) matches the run,
//   - the payload is at most one tag byte larger than the run's XOR form.
//
// Flag bit 0 negates the gap, bits 1–2 scale it, and bit 3 reads the 8
// value bytes as a decimal m/10^e instead of raw float64 bits (bit 4
// narrows m to 16 bits) — random bit patterns never form a decimal
// column, so without it the fuzzer could not reach that half of the codec.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("regular-grid-then-jitter-then-a-big-shift-0123456789abcdef"))
	seed := make([]byte, 0, 8*12)
	for i := 0; i < 8; i++ {
		seed = append(seed, 0x02, 0x00, 0x00, byte(i), 0x7f, 0xf8, 0, 0, 0, 0, 0, byte(i))
	}
	f.Add(seed) // NaN payload walk on a near-regular microsecond grid
	const sec, dec, narrow = 0x04, 0x08, 0x10
	run := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	// A two-decimal gauge at 1 Hz: the column the decimal mode exists for.
	gauge := make([][]byte, 40)
	for i := range gauge {
		gauge[i] = blockFuzzRecord(sec|dec, 1, decimalFuzzValue(2, 4200+int64(i*i%97)-48))
	}
	f.Add(run(gauge...))
	// The same run with one value the decimal column must refuse, each in turn.
	for _, odd := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Pi),
	} {
		f.Add(run(run(gauge[:20]...), blockFuzzRecord(sec, 1, odd), run(gauge[20:]...)))
	}
	// Mantissas at the decimal range's edge and at float64's integer edge.
	for _, m := range []int64{1<<51 - 2, 1<<51 - 1, 1 << 51, -(1 << 51), 1 << 53, 1<<53 + 1} {
		f.Add(run(blockFuzzRecord(sec|dec, 1, decimalFuzzValue(0, m)), blockFuzzRecord(sec|dec, 1, decimalFuzzValue(0, m-1)), gauge[0]))
		f.Add(run(blockFuzzRecord(sec|dec, 1, decimalFuzzValue(3, m)), blockFuzzRecord(sec|dec, 1, decimalFuzzValue(3, -m))))
	}
	// Runs of length 1 and 2, a flat column, and mixed exponents.
	f.Add(run(gauge[0]))
	f.Add(run(gauge[0], gauge[1]))
	f.Add(run(gauge[3], gauge[3], gauge[3], gauge[3]))
	f.Add(run(blockFuzzRecord(sec|dec|narrow, 1, decimalFuzzValue(0, 7<<40)), blockFuzzRecord(sec|dec|narrow, 1, decimalFuzzValue(12, 9<<40)),
		blockFuzzRecord(sec|dec, 1, decimalFuzzValue(5, 123456789))))

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []series.Point
		nano := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano()
		last := nano
		checkedReject := false
		// 12-byte records: 1 flag byte, 3-byte gap, 8-byte value.
		for i := 0; i+12 <= len(data); i += 12 {
			flags := data[i]
			gap := int64(data[i+1])<<16 | int64(data[i+2])<<8 | int64(data[i+3])
			// Scale the gap by the flag's unit: ns, µs, s, or 10^4 s —
			// the last one walks toward (and past) the int64 range.
			switch (flags >> 1) % 4 {
			case 1:
				gap *= 1_000
			case 2:
				gap *= 1_000_000_000
			case 3:
				gap *= 10_000_000_000_000
			}
			if flags&1 == 1 {
				gap = -gap // an out-of-order (or duplicate) attempt
			}
			nano += gap // deliberate wrap-around is fine: it must be rejected below
			vbits := binary.BigEndian.Uint64(data[i+4:])
			v := math.Float64frombits(vbits)
			if flags&0x08 != 0 {
				mant := int64(vbits<<8) >> 8
				if flags&0x10 != 0 {
					mant >>= 40
				}
				v = float64(mant) / decimal.Pow10[vbits>>56%(decimal.MaxExp+1)]
			}
			p := series.Point{Time: time.Unix(0, nano), Value: v}
			// An empty run accepts any starting timestamp; ordering only
			// binds from the second point on.
			if len(want) > 0 && nano < last {
				if !checkedReject { // once per input: the check re-encodes the run
					checkedReject = true
					if _, err := EncodeBlock(append(want[:len(want):len(want)], p)); err != ErrOutOfOrder {
						t.Fatalf("run ending at %d after %d: got %v, want ErrOutOfOrder", nano, last, err)
					}
				}
				nano = last
				continue
			}
			last = nano
			want = append(want, p)
		}
		blk, err := EncodeBlock(want)
		if err != nil {
			t.Fatalf("encoding an ordered run: %v", err)
		}
		if blk.Len() != len(want) {
			t.Fatalf("block len %d, want %d", blk.Len(), len(want))
		}
		if xor := len(xorOnlyPayload(want)); blk.Size() > xor+1 {
			t.Fatalf("payload is %d bytes, the run's XOR form %d", blk.Size(), xor)
		}
		if len(want) == 0 {
			return
		}
		rebuilt, err := RebuildBlock(blk.Data(), blk.Len())
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		for _, b := range []Block{blk, rebuilt} {
			got, err := b.Points(nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d points, want %d", len(got), len(want))
			}
			for i := range want {
				if !got[i].Time.Equal(want[i].Time) {
					t.Fatalf("point %d: time %v, want %v", i, got[i].Time, want[i].Time)
				}
				if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("point %d: value bits %016x, want %016x",
						i, math.Float64bits(got[i].Value), math.Float64bits(want[i].Value))
				}
			}
			if !time.Unix(0, b.firstNano).Equal(want[0].Time) || !time.Unix(0, b.lastNano).Equal(want[len(want)-1].Time) {
				t.Fatalf("block bounds [%v, %v], want [%v, %v]",
					time.Unix(0, b.firstNano), time.Unix(0, b.lastNano), want[0].Time, want[len(want)-1].Time)
			}
		}
	})
}

// bucketFuzzRecord is one 12-byte FuzzBucketBlockRoundTrip record: a flag
// byte, an exponent byte, a 4-byte min mantissa, a 2-byte max offset, a
// count byte, a sum-perturbation byte and two spare value bytes.
func bucketFuzzRecord(flags, exp byte, mant int32, off uint16, count, perturb byte) []byte {
	rec := []byte{flags, exp}
	rec = binary.BigEndian.AppendUint32(rec, uint32(mant))
	rec = binary.BigEndian.AppendUint16(rec, off)
	return append(rec, count, perturb, 0, 0)
}

// Flag bits of a bucketFuzzRecord.
const (
	bucketFuzzBits    = 0x01 // min is the record's last 8 bytes as raw float64 bits, not a decimal
	bucketFuzzUlps    = 0x02 // the sum is moved by the perturbation byte, in ulps
	bucketFuzzRetune  = 0x04 // the bucket width changes here
	bucketFuzzGap     = 0x08 // grid cells are skipped before this bucket
	bucketFuzzWide    = 0x10 // the mantissa is scaled up by 2^20
	bucketFuzzCountSh = 5    // the top three bits shift the count left by 6 bits each
)

// bucketsFromFuzz builds a run of 1…300 buckets from fuzz bytes: two bytes
// of run length, then 12-byte records used round-robin (so a short input
// still crosses miniblock and block-sized boundaries), each varied a
// little by its position so repeats are not identical.
func bucketsFromFuzz(data []byte) []bucket {
	if len(data) < 2+12 {
		return nil
	}
	n := 1 + int(binary.BigEndian.Uint16(data))%300
	recs := data[2 : 2+(len(data)-2)/12*12]
	bks := make([]bucket, n)
	start, width := blockEpoch.UnixNano(), int64(5*time.Second)
	for i := range bks {
		rec := recs[i*12%len(recs):][:12]
		flags := rec[0]
		scale := decimal.Pow10[rec[1]%(decimal.MaxExp+1)]
		mant := int64(int32(binary.BigEndian.Uint32(rec[2:]))) + int64(i%7)
		if flags&bucketFuzzWide != 0 {
			mant <<= 20
		}
		off := int64(binary.BigEndian.Uint16(rec[6:]))
		count := int64(rec[8]) << (6 * (flags >> bucketFuzzCountSh))
		b := bucket{min: float64(mant) / scale, max: float64(mant+off) / scale, count: count}
		if flags&bucketFuzzBits != 0 {
			b.min = math.Float64frombits(binary.BigEndian.Uint64(rec[4:]))
			if b.max = b.min + float64(off); !(b.max >= b.min) {
				b.max = b.min // NaN, or an infinity
			}
		}
		b.sum = (b.min + b.max) / 2 * float64(count)
		if flags&bucketFuzzUlps != 0 {
			b.sum = math.Float64frombits(decimal.UlpBits(decimal.UlpOrd(math.Float64bits(b.sum)) + int64(int8(rec[9]))))
		}
		if flags&bucketFuzzRetune != 0 {
			width = int64(1+rec[9]) * int64(time.Second) / 4
		}
		if flags&bucketFuzzGap != 0 {
			start += int64(rec[8]) * width
		}
		b.start, b.end = start, start+width
		start += width
		bks[i] = b
	}
	return bks
}

// FuzzBucketBlockRoundTrip drives the bucket codec with runs that cross
// miniblock and block-length boundaries and mix everything that decides a
// miniblock's form: exact decimals at one or several exponents, raw float
// bits (NaN and infinities included), sums a few ulps off their decimal,
// counts up to 2^40 and beyond, retuned widths and skipped grid cells. It
// checks the codec's whole contract: the run decodes back bit-exactly, the
// block's metadata (n, firstNano, lastEnd, samples) matches it, and the
// payload is at most two bytes per miniblock larger than the run's XOR
// form.
func FuzzBucketBlockRoundTrip(f *testing.F) {
	run := func(n int, recs ...[]byte) []byte {
		return append(binary.BigEndian.AppendUint16(nil, uint16(n-1)), bytes.Join(recs, nil)...)
	}
	gauge := bucketFuzzRecord(0, 2, 4217, 310, 3, 0)
	f.Add(run(1, gauge))
	f.Add(run(16, gauge))
	f.Add(run(17, gauge))
	f.Add(run(128, gauge, bucketFuzzRecord(0, 2, 4630, 12, 2, 0)))
	f.Add(run(300, gauge, bucketFuzzRecord(bucketFuzzUlps, 2, 3977, 655, 4, 3), bucketFuzzRecord(bucketFuzzUlps, 2, 5102, 80, 3, 0xfe)))
	// Mixed exponents: the common exponent rises mid-block.
	f.Add(run(60, gauge, gauge, gauge, bucketFuzzRecord(0, 5, 4217000, 1, 3, 0), bucketFuzzRecord(0, 12, 7, 65535, 1, 0)))
	// Stretches of raw float bits flip miniblocks to the XOR form and back.
	pi := bucketFuzzRecord(bucketFuzzBits, 0, 0x400921fb, 0x5444, 0x2d, 0x18)
	var mixed [][]byte
	for i := 0; i < 50; i++ {
		if i/10%2 == 0 {
			mixed = append(mixed, gauge)
		} else {
			mixed = append(mixed, pi)
		}
	}
	f.Add(run(250, mixed...))
	f.Add(run(40, bucketFuzzRecord(bucketFuzzBits, 0, 0x7ff80000, 0, 1, 0), pi, bucketFuzzRecord(bucketFuzzBits, 0, -0x100000, 0, 0, 0)))
	// Counts from zero to past 2^40, retunes, gaps and wide mantissas.
	f.Add(run(90, bucketFuzzRecord(7<<bucketFuzzCountSh, 2, 4217, 310, 255, 0), bucketFuzzRecord(0, 2, 4217, 310, 0, 0),
		bucketFuzzRecord(bucketFuzzRetune|bucketFuzzGap, 2, 4217, 310, 9, 77), bucketFuzzRecord(bucketFuzzWide, 0, math.MaxInt32, 65535, 1, 0),
		bucketFuzzRecord(bucketFuzzWide, 0, math.MinInt32, 0, 200, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		bks := bucketsFromFuzz(data)
		if len(bks) == 0 {
			return
		}
		bb := checkBucketRoundTrip(t, bks)
		if xor := len(xorOnlyBucketPayload(bks)); bb.size() > xor+2*miniblocks(len(bks)) {
			t.Fatalf("payload of %d miniblocks is %d bytes, the run's XOR form %d", miniblocks(len(bks)), bb.size(), xor)
		}
	})
}

// corruptBucketPayloads returns a valid 24-bucket payload (a first and a
// continuing miniblock; decimal form, or XOR when decimal is false) and,
// by name, copies of it whose miniblock headers claim what the encoder
// never writes.
func corruptBucketPayloads(decimal bool) (valid []byte, n int, corrupt map[string][]byte) {
	bks := make([]bucket, 24)
	for i := range bks {
		v := float64(4200+i*i%97) / 100
		at := blockEpoch.Add(time.Duration(4*i) * time.Second).UnixNano()
		bks[i] = bucket{start: at, end: at + int64(4*time.Second), min: v - 1, max: v + 1, sum: 4*v + 0.1, count: 4}
		if !decimal {
			bks[i].sum *= 1e30 // past the mantissa range
		}
	}
	valid = encodeBucketBlock(bks).data
	second := len(encodeBucketBlock(bks[:miniLen]).data) // miniblocks are byte-aligned: the second one's header
	edit := func(at int, to byte) []byte {
		bad := append([]byte(nil), valid...)
		bad[at] = to
		return bad
	}
	corrupt = map[string][]byte{
		"chain continues on the first miniblock": edit(0, valid[0]|miniContinues),
		"spare header bit":                       edit(0, valid[0]|miniSpare),
		"chain continues across a form change":   edit(second, valid[second]^miniDecimal),
		"entry count past the block":             edit(second, valid[second]|miniCountMask),
		"truncated":                              valid[:len(valid)/2],
	}
	if decimal {
		// After the header byte and the verbatim start and width: the 4-bit
		// exponent, the 52-bit first mantissa, then the widths header.
		corrupt["exponent above 12"] = edit(17, valid[17]|0xf0)
		corrupt["count width above 53"] = edit(24, valid[24]|0xfc)
	} else {
		corrupt["form flipped to decimal"] = edit(0, valid[0]|miniDecimal)
	}
	return valid, len(bks), corrupt
}

// TestBucketBlockRejectsCorruptHeaders: every header the encoder cannot
// have written decodes to ErrCorruptBlock, within the block's entry count.
func TestBucketBlockRejectsCorruptHeaders(t *testing.T) {
	for _, decimal := range []bool{true, false} {
		valid, n, corrupt := corruptBucketPayloads(decimal)
		if err := (bucketBlock{data: valid, n: n}).each(func(bucket) {}); err != nil {
			t.Fatalf("decimal=%v: the unedited payload: %v", decimal, err)
		}
		if decimal != (valid[0]&miniDecimal != 0) {
			t.Fatalf("decimal=%v: the payload opens with header %08b", decimal, valid[0])
		}
		for name, data := range corrupt {
			seen := 0
			err := bucketBlock{data: data, n: n}.each(func(bucket) { seen++ })
			if !errors.Is(err, ErrCorruptBlock) || seen >= n {
				t.Errorf("decimal=%v, %s: decoded %d of %d buckets, err %v; want ErrCorruptBlock", decimal, name, seen, n, err)
			}
		}
	}
}

// FuzzBlockDecode feeds arbitrary bytes and entry counts to both block
// decoders. Each must come back with ErrCorruptBlock or a block — never a
// panic, never a read past the payload (which Go would turn into one) —
// and must stop within the count it was given.
func FuzzBlockDecode(f *testing.F) {
	pts := make([]series.Point, 24)
	for i := range pts {
		pts[i] = series.Point{Time: blockEpoch.Add(time.Duration(i) * time.Second), Value: float64(4200+i*i%97) / 100}
	}
	for _, decimal := range []bool{true, false} {
		if !decimal {
			pts[7].Value = math.Pi
		}
		blk, err := EncodeBlock(pts)
		if err != nil {
			f.Fatal(err)
		}
		payload := blk.Data()
		f.Add(payload, uint16(len(pts)))
		f.Add(payload, uint16(len(pts)+1))
		f.Add(payload[:len(payload)/2], uint16(len(pts)))
		// The column claims decimal; then its header — after the tag byte
		// and the verbatim first timestamp — declares an exponent, a delta
		// width and a tag the format does not have.
		for _, edit := range []struct {
			at int
			to byte
		}{{0, 0x01}, {9, 0xf0}, {9, 0x0f}, {0, 0x02}, {0, 0xff}} {
			bad := append([]byte(nil), payload...)
			bad[edit.at] = edit.to
			f.Add(bad, uint16(len(pts)))
		}
		valid, n, corrupt := corruptBucketPayloads(decimal)
		f.Add(valid, uint16(n))
		f.Add(valid, uint16(n+1))
		f.Add(valid, uint16(10)) // the first miniblock alone holds 16
		for _, data := range corrupt {
			f.Add(data, uint16(n))
		}
	}
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{1}, uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if blk, err := RebuildBlock(data, int(n)); err == nil {
			got, err := blk.Points(nil)
			if err != nil || len(got) != int(n) {
				t.Fatalf("rebuilt block of %d points decodes to %d, %v", n, len(got), err)
			}
		} else if !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("RebuildBlock: %v, want ErrCorruptBlock", err)
		}
		seen := 0
		err := bucketBlock{data: data, n: int(n)}.each(func(bucket) { seen++ })
		if err == nil && seen != int(n) || seen > int(n) {
			t.Fatalf("bucket decoder emitted %d of %d buckets, err %v", seen, n, err)
		}
		if err != nil && !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("bucket decoder: %v, want ErrCorruptBlock", err)
		}
	})
}
