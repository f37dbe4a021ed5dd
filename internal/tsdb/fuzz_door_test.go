package tsdb

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/series"
)

// doorValue picks one of the values the codecs treat specially: what the
// decimal planner must refuse by name (NaN with and without a payload,
// ±Inf, −0), what sits on either side of its mantissa limit (|v·10^e|
// around 2^51, every exponent up to one past the largest), float sums of
// decimals (ulp residuals), and the ends of the float64 range.
func doorValue(sel, mag byte) float64 {
	switch sel % 12 {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(mag)<<3 | 1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 0
	case 6, 7:
		v := float64(1<<51-3+int64(mag%6)) / math.Pow10(int(mag>>3)%14)
		if sel%12 == 7 {
			v = -v
		}
		return v
	case 8:
		return float64(int8(mag)) / 100
	case 9:
		return 0.1 * float64(mag)
	case 10:
		if mag%2 == 0 {
			return math.MaxFloat64
		}
		return math.SmallestNonzeroFloat64
	default:
		return float64(mag) * 1e-13
	}
}

// doorModel is the append door's contract for one series, stated
// independently of memSeries: a point lands iff it is not older than the
// newest landed point and lies inside [minAppendTime, maxAppendTime].
type doorModel struct {
	haveLast bool
	last     time.Time
	accepted []series.Point
}

func (m *doorModel) admit(p series.Point) (want error) {
	switch {
	case m.haveLast && p.Time.Before(m.last):
		return ErrOutOfOrder
	case p.Time.Before(minAppendTime) || p.Time.After(maxAppendTime):
		return ErrTimeRange
	}
	m.haveLast, m.last = true, p.Time
	m.accepted = append(m.accepted, p)
	return nil
}

// FuzzAppendDoorNeverWedges drives op sequences through DB.Append and
// DB.AppendBatch at CompressBlock 4 — a seal every fourth accepted point,
// under the shard lock. Stamps move forward, repeat, step back, and jump
// to and past both ends of the accepted range; values come from
// doorValue. Whatever the sequence: no panic, every verdict is the door's
// contract (doorModel), and accepted == landed == decodable — an unbounded
// store reads back exactly the accepted points, bit for bit; a bounded one
// keeps their newest run raw and accounts for every other one as summarized
// in a tier or forgotten past the last. After every op, the open run —
// coded as it fills, re-coded when its exponent rises or its values leave
// the decimal form — is held to the same bar: every block it sealed is
// byte for byte EncodeBlock of the accepted points it took, and a query
// over the points not yet sealed returns exactly those.
//
// Byte 0 bit 0 bounds the store (16 raw points, two tiers of 8 buckets)
// so the cascade and the bucket codec face the same values; each op is
// three bytes: kind (bit 7 = through AppendBatch, bits 5–6 = series), arg,
// value selector (the value's magnitude byte is arg).
func FuzzAppendDoorNeverWedges(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 0, 1, 8, 0, 1, 8, 0, 1, 8, 0, 1, 8})
	f.Add([]byte{1, 0, 9, 0, 1, 0, 4, 2, 3, 2, 0, 7, 6, 0x80, 200, 7, 0x81, 0, 1, 0x80, 3, 3})
	f.Add([]byte{0, 4, 0, 6, 1, 0, 7, 1, 0, 0, 1, 0, 1, 5, 0, 10, 1, 0, 4, 6, 1, 5, 7, 0, 2})
	f.Add([]byte{1, 4, 9, 8, 3, 255, 8, 3, 255, 8, 3, 255, 8, 3, 255, 8, 8, 0, 0, 3, 255, 8, 5, 0, 8, 1, 0, 2, 1, 0, 3, 1, 0, 4, 9, 0, 0})
	f.Add([]byte("\x01append door: equal, backward and edge stamps; NaN, Inf, -0, 2^51"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rc := RetentionConfig{CompressBlock: 4}
		if len(data) > 0 {
			if data[0]&1 == 1 {
				rc.RawCapacity, rc.TierCapacity, rc.Tiers = 16, 8, 2
			}
			data = data[1:]
		}
		db := New(Config{Shards: 2, Retention: rc})
		ids := [4]string{"door/a", "door/b", "door/c", "door/d"}
		var models [4]doorModel
		cursor := [4]time.Time{}
		for i := range cursor {
			cursor[i] = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
		}

		check := func(s int, p series.Point, got error) {
			t.Helper()
			if want := models[s].admit(p); got != want {
				t.Fatalf("%s: append at %v (value bits %#x) = %v, the door's contract says %v",
					ids[s], p.Time, math.Float64bits(p.Value), got, want)
			}
		}
		// seals queues each series' sealed raw blocks in seal order, as the
		// WAL sees them; sealed counts the accepted points they took.
		var seals [4][]Block
		var sealed [4]int
		db.OnSeal(func(id string, blk Block) {
			s := int(id[len(id)-1] - 'a')
			seals[s] = append(seals[s], blk)
		})
		checkRuns := func() {
			t.Helper()
			for s, id := range ids {
				accepted := models[s].accepted
				for _, blk := range seals[s] {
					if sealed[s]+blk.Len() > len(accepted) {
						t.Fatalf("%s: sealed %d points, %d accepted", id, sealed[s]+blk.Len(), len(accepted))
					}
					pts := accepted[sealed[s] : sealed[s]+blk.Len()]
					want, err := EncodeBlock(pts)
					if err != nil || !bytes.Equal(blk.Data(), want.Data()) || !blk.First().Equal(want.First()) || !blk.Last().Equal(want.Last()) {
						t.Fatalf("%s: block of %d sealed from the open run is %x, EncodeBlock of its points %x (%v)", id, blk.Len(), blk.Data(), want.Data(), err)
					}
					sealed[s] += blk.Len()
				}
				seals[s] = seals[s][:0]
				run := accepted[sealed[s]:]
				if len(run) == 0 {
					continue
				}
				res, err := db.Query(id, run[0].Time, run[len(run)-1].Time.Add(time.Nanosecond), 0)
				if err != nil || len(res.Points) < len(run) {
					t.Fatalf("%s: a query over the %d unsealed points: %v", id, len(run), err)
				}
				for i, p := range res.Points[len(res.Points)-len(run):] {
					if !p.Time.Equal(run[i].Time) || math.Float64bits(p.Value) != math.Float64bits(run[i].Value) {
						t.Fatalf("%s unsealed point %d of %d: read back (%v, %#x), accepted (%v, %#x)", id, i, len(run),
							p.Time, math.Float64bits(p.Value), run[i].Time, math.Float64bits(run[i].Value))
					}
				}
			}
		}
		var batch []BatchPoint
		var batchSeries []int
		flush := func() {
			db.AppendBatch(batch)
			for i, bp := range batch {
				check(batchSeries[i], bp.P, bp.Err)
			}
			batch, batchSeries = batch[:0], batchSeries[:0]
		}

		for i := 0; i+2 < len(data); i += 3 {
			checkRuns()
			kind, arg, sel := data[i], data[i+1], data[i+2]
			s := int(kind >> 5 & 3)
			var at time.Time
			switch kind & 0x1f % 10 {
			case 0:
				at = cursor[s].Add(time.Duration(1+int(arg)) * time.Millisecond)
			case 1:
				at = cursor[s]
			case 2:
				at = cursor[s].Add(-time.Duration(1+int(arg)) * time.Nanosecond)
			case 3:
				at = cursor[s].Add(time.Duration(arg) * time.Second)
			case 4:
				at = minAppendTime.Add(time.Duration(arg) * time.Nanosecond)
			case 5:
				at = maxAppendTime.Add(-time.Duration(arg) * time.Nanosecond)
			case 6:
				at = minAppendTime.Add(-time.Duration(1+int(arg)) * time.Nanosecond)
				if arg&1 == 1 {
					at = maxAppendTime.Add(time.Duration(1+int(arg)) * time.Nanosecond)
				}
			case 7:
				at = time.Unix(int64(int8(arg))<<55, 0) // far outside int64 nanoseconds, either side
			case 8:
				flush()
				db.SetNyquistRate(ids[s], 1/float64(1+int(arg)))
				continue
			case 9:
				flush()
				db.SealAll()
				continue
			}
			p := series.Point{Time: at, Value: doorValue(sel, arg)}
			if kind&0x80 != 0 {
				batch, batchSeries = append(batch, BatchPoint{ID: ids[s], P: p}), append(batchSeries, s)
				if len(batch) == 5 {
					flush()
				}
			} else {
				flush()
				check(s, p, db.Append(ids[s], p))
			}
			if m := &models[s]; m.haveLast {
				cursor[s] = m.last
			}
		}
		flush()
		checkRuns()

		for s, id := range ids {
			want := models[s].accepted
			if len(want) == 0 {
				continue // never landed a point: nothing to read back
			}
			st, err := db.SeriesStats(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if st.Appends != int64(len(want)) || int64(st.RawPoints)+st.Compacted != st.Appends {
				t.Fatalf("%s: accepted %d, store counts appends %d = raw %d + compacted %d",
					id, len(want), st.Appends, st.RawPoints, st.Compacted)
			}
			res, err := db.Full(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			raw := res.Points
			if rc.RawCapacity > 0 {
				var summarized int64
				for _, a := range res.Aggregates {
					summarized += a.Count
				}
				if summarized+st.Dropped != st.Compacted {
					t.Fatalf("%s: tiers summarize %d samples and forgot %d, %d were compacted", id, summarized, st.Dropped, st.Compacted)
				}
				raw = raw[len(raw)-st.RawPoints:]
				want = want[len(want)-st.RawPoints:]
			}
			if len(raw) != len(want) {
				t.Fatalf("%s: %d points read back, %d accepted", id, len(raw), len(want))
			}
			for i, p := range raw {
				if !p.Time.Equal(want[i].Time) || math.Float64bits(p.Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("%s point %d: read back (%v, %#x), accepted (%v, %#x)", id, i,
						p.Time, math.Float64bits(p.Value), want[i].Time, math.Float64bits(want[i].Value))
				}
			}
		}
	})
}
