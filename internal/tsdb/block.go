// The compressed-block codecs: delta-of-delta timestamps and value columns
// packed into a bit stream — the formats that let a network-facing store
// hold an order of magnitude more points per byte than []Point slices.
// Raw blocks (Block: one value column behind a one-byte tag) are what the
// WAL and snapshots persist; bucket blocks (bucketBlock: a chain of
// byte-aligned miniblocks, described at bucketStream.add) exist only in
// memory.
//
// Timestamps follow Facebook's Gorilla (VLDB 2015), adapted to
// nanoseconds: the first is stored verbatim, every later one as the
// delta-of-delta — the change in inter-sample spacing — which is exactly
// zero on a regular poll grid. A zero costs one bit; jittered grids cost
// a few bytes; an arbitrary shift falls back to a full 64-bit field.
//
// A raw block's value column is coded in one of two modes, chosen at seal
// time, when the encoder holds the whole run (colEnc.plan), and recorded
// in the tag byte (bit 0 set = decimal):
//
//   - XOR (Gorilla's): every value stores the XOR against its predecessor.
//     Repeated readings cost one bit; readings quantized to a power of
//     two share sign, exponent and high mantissa bits and store only the
//     short meaningful window — 1.3 bytes/point on a 1/64-quantized
//     diurnal gauge (TestBlockBytesPerPointDiurnal). Decimal fractions
//     are what it is bad at: hundredths have full-length IEEE mantissas,
//     and the same chain costs ~7 bytes/point on two-decimal telemetry.
//
//   - Decimal: when every value is m/10^e for one exponent e ≤ 12 and
//     integer |m| < 2^51 — exactly, or within a few ulps, as a float sum
//     of decimals is — the column stores a header (e, W, R), the first
//     mantissa, then per entry a W-bit zigzag mantissa delta and an R-bit
//     zigzag ulp residual (W = 0 for a flat column, R = 0 for an exact
//     one): 1.4 bytes/point on two-decimal telemetry in 128-point blocks
//     (TestBlockBytesPerPointDecimal).
//
// The planner takes decimal only when it fits and is strictly smaller
// than the column's XOR form, so a NaN, ±Inf, −0, an out-of-range or
// non-decimal value — or a binary-quantized column — leaves the column
// on the XOR chain, and a sealed block is never more than its tag byte
// larger than the all-XOR payload (TestBlockNeverLargerThanXOR). That
// all-XOR payload, without the tag, is the format every block had before
// decimal columns (payload version 1 in internal/wal, which prepends a
// zero tag to read it): one decoder reads both.
//
// A bucket block makes the same choice per miniblock of at most 16
// buckets, jointly for its three value columns: the XOR chains, or one
// decimal exponent under which count, max and sum are coded against the
// miniblock's smallest count, the bucket's min and a prediction from
// both — on two-decimal tiers 3.3 bytes a bucket where three independent
// columns and a count chain took 8.0 at one or two readings to a bucket,
// 5.4 against 5.8 at 26 (BenchmarkBucketBlockEncode,
// TestBucketBlockRoundTrip) — and the same bound holds per miniblock.
//
// Every mode is bijective: decoding returns the exact UnixNano instants
// and bit-identical float64 values that were sealed, NaN payloads
// included. Runs with decreasing timestamps (equal stamps are allowed —
// production pollers do emit duplicates) or timestamps outside the
// int64-nanosecond range are refused with ErrOutOfOrder / ErrTimeRange.
//
// This comment documents the file; the package doc lives in tsdb.go.

package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/decimal"
	"repro/internal/series"
)

var (
	// ErrOutOfOrder is returned by EncodeBlock for a run holding a
	// timestamp earlier than its predecessor (and by DB appends older than
	// the series' newest sample). Blocks are time-ordered by construction.
	ErrOutOfOrder = errors.New("tsdb: block append out of order")
	// ErrTimeRange is returned for timestamps not representable as
	// int64 nanoseconds since the Unix epoch (roughly years 1678–2262);
	// DB appends return it one year inside those limits (see
	// memSeries.append).
	ErrTimeRange = errors.New("tsdb: timestamp outside int64-nanosecond range")
	// ErrCorruptBlock is returned when decoding runs off the end of the
	// bit stream or decodes more points than the block holds.
	ErrCorruptBlock = errors.New("tsdb: corrupt block")
)

// unixNanoSafe reports whether t survives a UnixNano round trip.
// time.Unix(0, n) covers 1678-09-21 .. 2262-04-11; a whole second strictly
// inside that range settles it, only the two edge seconds need the exact
// comparison against the representable extremes.
func unixNanoSafe(t time.Time) bool {
	if s := t.Unix(); s > minUnixSec && s < maxUnixSec {
		return true
	}
	return !t.Before(minUnixNano) && !t.After(maxUnixNano)
}

var (
	minUnixNano = time.Unix(0, math.MinInt64)
	maxUnixNano = time.Unix(0, math.MaxInt64)
	minUnixSec  = minUnixNano.Unix()
	maxUnixSec  = maxUnixNano.Unix()
)

// bitWriter packs MSB-first bit fields into a byte slice, a 64-bit word
// at a time.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits, in the low n bits
	n   uint   // pending bit count, always < 64
}

func (w *bitWriter) reset() {
	w.buf = w.buf[:0]
	w.acc, w.n = 0, 0
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// writeBits appends the low k bits of v, most significant first. k ≤ 64.
func (w *bitWriter) writeBits(v uint64, k uint) {
	if k < 64 {
		v &= 1<<k - 1
	}
	if w.n+k < 64 {
		w.acc = w.acc<<k | v
		w.n += k
		return
	}
	rest := w.n + k - 64 // low bits of v that spill into the next word
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(k-rest)|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.n = rest
}

// align pads the pending bits with zeros to a whole byte and moves them
// into buf, so the next field starts on a byte boundary.
func (w *bitWriter) align() {
	word := w.acc << (64 - w.n)
	for i := uint(0); i < (w.n+7)/8; i++ {
		w.buf = append(w.buf, byte(word>>56))
		word <<= 8
	}
	w.acc, w.n = 0, 0
}

// sealed aligns the stream and returns an exactly-sized copy of it.
func (w *bitWriter) sealed() []byte {
	w.align()
	return exactCopy(w.buf)
}

// exactCopy copies b into a slice with no spare capacity: what a sealed
// block keeps for as long as it is retained.
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// bitReader consumes MSB-first bit fields from a byte slice, refilling a
// 64-bit accumulator a word at a time. It is a value type so concurrent
// readers can each iterate a shared block without touching shared state.
type bitReader struct {
	data []byte
	pos  int    // index of the next byte to load into acc
	acc  uint64 // unread bits, left-aligned
	n    uint   // unread bit count in acc
	err  error
	// tail holds tailN bits, left-aligned, that follow a data of whole
	// words: an open run's bits still pending in its writer.
	tail  uint64
	tailN uint
}

func newBitReader(data []byte) bitReader { return bitReader{data: data} }

func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// readBits returns the next k bits as the low bits of a uint64. On
// underflow it sets err and returns 0. k ≤ 64.
func (r *bitReader) readBits(k uint) uint64 {
	if k <= r.n {
		v := r.acc >> (64 - k)
		r.acc <<= k
		r.n -= k
		return v
	}
	return r.refillRead(k)
}

// refillRead is readBits' slow path: the accumulator's last bits are the
// field's high part, the rest comes from the next word of the payload.
func (r *bitReader) refillRead(k uint) uint64 {
	v := r.acc >> (64 - r.n)
	k -= r.n
	if len(r.data)-r.pos >= 8 {
		r.acc = binary.BigEndian.Uint64(r.data[r.pos:])
		r.pos += 8
		r.n = 64
	} else {
		r.acc, r.n = 0, 0
		for ; r.pos < len(r.data); r.pos++ {
			r.acc |= uint64(r.data[r.pos]) << (56 - r.n)
			r.n += 8
		}
		if r.n == 0 {
			r.acc, r.n, r.tailN = r.tail, r.tailN, 0
		}
	}
	if k > r.n {
		r.err = ErrCorruptBlock
		r.acc, r.n = 0, 0
		return 0
	}
	v = v<<k | r.acc>>(64-k)
	r.acc <<= k
	r.n -= k
	return v
}

// align skips to the next byte boundary. The accumulator is loaded in
// whole bytes, so the bits to drop are the unread count modulo 8.
func (r *bitReader) align() {
	k := r.n % 8
	r.acc <<= k
	r.n -= k
}

// zigzag maps signed to unsigned so small-magnitude values of either
// sign get small codes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ladder is a variable-length code for small signed integers. A value takes
// the first rung whose width holds its zigzag: rung i is i one-bits, a
// zero (omitted on the last rung, which is 64 wide), then the zigzag in
// the rung's width.
type ladder []uint

var (
	// dodLadder codes delta-of-deltas (and the bucket codec's widths and
	// XOR-form counts). Nanosecond grids make the classic Gorilla
	// second-scale buckets useless, so: 0 → one bit; sub-millisecond
	// jitter → '10' + 21 bits; sub-4-second shifts → '110' + 33 bits;
	// anything → '111' + 64 bits.
	dodLadder = ladder{0, 21, 33, 64}
	// stepLadder codes the move of a count base between miniblocks — a
	// sample or two, where dodLadder would spend 23 bits: 0 → one bit;
	// |step| < 8 → '10' + 4 bits; anything → '11' + 64 bits.
	stepLadder = ladder{0, 4, 64}
	// mantLadder codes the open raw run's mantissa deltas, whose width no
	// planner has measured yet: 0 → one bit; |d| < 32 → '10' + 6 bits;
	// < 2048 (two-decimal telemetry's typical step) → '110' + 12 bits;
	// < 2^23 → '1110' + 24 bits; anything → '1111' + 64 bits.
	mantLadder = ladder{0, 6, 12, 24, 64}
)

// rung is the index of the first rung past the bottom that holds z ≠ 0.
func (l ladder) rung(z uint64) int {
	i := 1
	for i < len(l)-1 && z>>l[i] != 0 {
		i++
	}
	return i
}

// bits is the size write gives v.
func (l ladder) bits(v int64) int {
	if v == 0 {
		return 1
	}
	i := l.rung(zigzag(v))
	return min(i+1, len(l)-1) + int(l[i])
}

// write and read take the bottom rung — a lone zero bit, the whole code on
// a regular grid — before they consult the table.
func (l ladder) write(w *bitWriter, v int64) {
	if v == 0 {
		w.writeBit(0)
		return
	}
	z := zigzag(v)
	i := l.rung(z)
	if i == len(l)-1 {
		w.writeBits(1<<i-1, uint(i))
		w.writeBits(z, 64)
		return
	}
	w.writeBits((1<<i-1)<<(1+l[i])|z, uint(i)+1+l[i])
}

func (l ladder) read(r *bitReader) int64 {
	if r.readBit() == 0 {
		return 0
	}
	i := 1
	for i < len(l)-1 && r.readBit() == 1 {
		i++
	}
	return unzigzag(r.readBits(l[i]))
}

// xorState is one Gorilla XOR value chain: the previous value plus the
// previous meaningful-bit window.
type xorState struct {
	prev     uint64
	leading  uint
	sigbits  uint
	haveWind bool
}

// xorKind is how one chain step is coded.
type xorKind uint8

const (
	xorSame   xorKind = iota // the value repeats: '0'
	xorReuse                 // its XOR fits the previous window: '10' + the window's bits
	xorWindow                // a new window: '11' + 5-bit leading + 6-bit length + bits
)

// step advances the chain to v and reports how v is coded: its XOR against
// the predecessor and the kind, with leading/sigbits holding the window the
// code uses. write and cost both go through it, so the planner's count is
// the encoder's size by construction.
func (s *xorState) step(v uint64) (x uint64, kind xorKind) {
	x = v ^ s.prev
	s.prev = v
	if x == 0 {
		return 0, xorSame
	}
	lead := min(uint(bits.LeadingZeros64(x)), 31)
	trail := uint(bits.TrailingZeros64(x))
	sig := 64 - lead - trail
	// Reuse the previous window when the new meaningful bits fit inside
	// it — both ends — and it is not grossly oversized (the classic
	// heuristic: a stale wide window would pad every subsequent value).
	if s.haveWind && lead >= s.leading && trail >= 64-s.leading-s.sigbits && s.sigbits < sig+12 {
		return x, xorReuse
	}
	s.leading, s.sigbits, s.haveWind = lead, sig, true
	return x, xorWindow
}

// write encodes v against the chain and advances it.
func (s *xorState) write(w *bitWriter, v uint64) {
	x, kind := s.step(v)
	switch kind {
	case xorSame:
		w.writeBit(0)
		return
	case xorReuse:
		w.writeBits(0b10, 2)
	case xorWindow:
		w.writeBits(0b11<<11|uint64(s.leading)<<6|uint64(s.sigbits-1), 13)
	}
	w.writeBits(x>>(64-s.leading-s.sigbits), s.sigbits)
}

// cost advances the chain to v and returns the bits write would emit.
func (s *xorState) cost(v uint64) int {
	switch _, kind := s.step(v); kind {
	case xorSame:
		return 1
	case xorReuse:
		return 2 + int(s.sigbits)
	default:
		return 13 + int(s.sigbits)
	}
}

// read decodes the next value in the chain and advances it.
func (s *xorState) read(r *bitReader) uint64 {
	if r.readBit() == 0 {
		return s.prev
	}
	if r.readBit() == 0 {
		if !s.haveWind {
			r.err = ErrCorruptBlock
			return 0
		}
		x := r.readBits(s.sigbits) << (64 - s.leading - s.sigbits)
		s.prev ^= x
		return s.prev
	}
	lead := uint(r.readBits(5))
	sig := uint(r.readBits(6)) + 1
	if lead+sig > 64 {
		r.err = ErrCorruptBlock
		return 0
	}
	x := r.readBits(sig) << (64 - lead - sig)
	s.prev ^= x
	s.leading, s.sigbits, s.haveWind = lead, sig, true
	return s.prev
}

// A decimal column stores v as the integer mantissa m = round(v·10^e)
// plus the signed ulp distance from float64(m)/10^e back to v
// (decimal.At). The exponent is per column; |m| < 2^51 keeps the first
// mantissa in 52 zigzag bits and every delta in 53; the residual field is
// at most 7 bits, r in [-64, 64). A column holding −0 is never decimal.
const (
	firstMantBits = 52
	maxDeltaBits  = 53
	residBits     = 7 // a zigzag residual in [-decimal.MaxResid, decimal.MaxResid)
	// colHeaderBits is the (e, W, R) header: 4 + 6 + 3 bits.
	colHeaderBits = 13
)

// raiseExp raises *exp to the next exponent v fits at, or reports false
// when none up to decimal.MaxExp does. Both planners call it on the first
// value their current exponent cannot hold and then restart their run, so
// a pass is repeated once per distinct raise (rarely more than twice) and a
// non-decimal value costs decimal.MaxExp probes, not passes.
func raiseExp(v float64, exp *uint) bool {
	for *exp < decimal.MaxExp {
		*exp++
		if _, _, ok := decimal.At(v, decimal.Pow10[*exp]); ok {
			return true
		}
	}
	return false
}

// colEnc plans and writes one float64 column of a sealed run. The caller
// gathers the column into vals, plan picks the mode, write emits entry i.
type colEnc struct {
	vals  []float64
	mant  []int64 // per-entry mantissas and residuals, valid when decimal
	resid []int64

	decimal           bool
	exp, width, rbits uint // the decimal header: e, W, R
	xor               xorState
}

// planPrefix is how many leading values plan fits before it looks at the
// XOR chain: enough to see a column's typical delta, few enough to cost
// nothing when the column turns out not to be decimal-shaped.
const planPrefix = 8

// plan chooses the column's mode: decimal when every value fits one
// exponent and the fixed-width deltas come out smaller than the XOR
// chain, XOR otherwise — so a column never costs more than its XOR form.
// Widths only grow as more of the column is fitted, so a short prefix
// bounds the decimal cost from below: a column whose XOR chain fits under
// that bound (binary-quantized readings) stays XOR without being fitted,
// and one whose chain overshoots it (decimal telemetry) is found out a
// fraction of the way into the count.
func (c *colEnc) plan() {
	c.decimal, c.exp = false, 0
	c.xor = xorState{}
	n := len(c.vals)
	if n < 2 || !c.fitDecimal(min(n, planPrefix)) {
		return
	}
	lower := c.decimalBits()
	if xorFits(c.vals, lower) || !c.fitDecimal(n) {
		return
	}
	bits := c.decimalBits()
	c.decimal = bits == lower || !xorFits(c.vals, bits)
}

// decimalBits is the column's size in decimal mode at the fitted widths.
func (c *colEnc) decimalBits() int {
	n := len(c.vals)
	return colHeaderBits + firstMantBits + (n-1)*int(c.width) + n*int(c.rbits)
}

// fitDecimal fits vals[:k] at the smallest common exponent not below
// c.exp, filling mant and resid and measuring the delta and residual
// widths. A value that needs more digits raises the exponent and restarts
// the run (see raiseExp).
func (c *colEnc) fitDecimal(k int) bool {
	var deltas, resids uint64
	c.mant, c.resid = c.mant[:0], c.resid[:0]
	for i := 0; i < k; i++ {
		m, r, ok := decimal.At(c.vals[i], decimal.Pow10[c.exp])
		if !ok {
			if !raiseExp(c.vals[i], &c.exp) {
				return false
			}
			deltas, resids = 0, 0
			c.mant, c.resid = c.mant[:0], c.resid[:0]
			i = -1
			continue
		}
		if i > 0 {
			deltas |= zigzag(m - c.mant[i-1])
		}
		resids |= zigzag(r)
		c.mant, c.resid = append(c.mant, m), append(c.resid, r)
	}
	c.width, c.rbits = uint(bits.Len64(deltas)), uint(bits.Len64(resids))
	return true
}

// xorFits reports whether the XOR chain codes vals in at most budget
// bits, giving up at the first value that takes it past.
func xorFits(vals []float64, budget int) bool {
	s := xorState{prev: math.Float64bits(vals[0])}
	total := 64
	for _, v := range vals[1:] {
		if total += s.cost(math.Float64bits(v)); total > budget {
			return false
		}
	}
	return total <= budget
}

// write emits entry i of the planned column. Entry 0 carries the decimal
// header and the first mantissa, or the first value verbatim.
func (c *colEnc) write(w *bitWriter, i int) {
	switch {
	case !c.decimal && i == 0:
		c.xor.prev = math.Float64bits(c.vals[0])
		w.writeBits(c.xor.prev, 64)
		return
	case !c.decimal:
		c.xor.write(w, math.Float64bits(c.vals[i]))
		return
	case i == 0:
		w.writeBits(uint64(c.exp)<<9|uint64(c.width)<<3|uint64(c.rbits), colHeaderBits)
		w.writeBits(zigzag(c.mant[0]), firstMantBits)
	default:
		w.writeBits(zigzag(c.mant[i]-c.mant[i-1]), c.width)
	}
	w.writeBits(zigzag(c.resid[i]), c.rbits)
}

// colDec decodes one float64 column, in either mode — or an open run's
// values (run set: decimal mantissas chained from zero on mantLadder at
// the run's scale, no header).
type colDec struct {
	decimal, run bool
	width, rbits uint
	scale        float64
	mant         int64
	xor          xorState
}

// first reads entry 0 (and the decimal header), returning the value.
func (c *colDec) first(r *bitReader) float64 {
	switch {
	case !c.decimal:
		c.xor.prev = r.readBits(64)
		return math.Float64frombits(c.xor.prev)
	case c.run:
		return c.next(r)
	}
	h := r.readBits(colHeaderBits)
	exp := h >> 9
	c.width, c.rbits = uint(h>>3&0x3f), uint(h&7)
	if exp > decimal.MaxExp || c.width > maxDeltaBits {
		r.err = ErrCorruptBlock
		return 0
	}
	c.scale = decimal.Pow10[exp]
	c.mant = unzigzag(r.readBits(firstMantBits))
	return c.value(r)
}

// next reads one later entry.
func (c *colDec) next(r *bitReader) float64 {
	if !c.decimal {
		return math.Float64frombits(c.xor.read(r))
	}
	if c.run {
		c.mant += mantLadder.read(r)
		var resid int64
		if r.readBit() == 1 {
			resid = unzigzag(r.readBits(residBits))
		}
		return decimalValue(c.mant, c.scale, resid)
	}
	c.mant += unzigzag(r.readBits(c.width))
	return c.value(r)
}

func (c *colDec) value(r *bitReader) float64 {
	if c.rbits == 0 {
		return float64(c.mant) / c.scale
	}
	return decimalValue(c.mant, c.scale, unzigzag(r.readBits(c.rbits)))
}

// decimalValue is the float64 a decimal column's mantissa and ulp residual
// stand for.
func decimalValue(mant int64, scale float64, resid int64) float64 {
	v := float64(mant) / scale
	if resid != 0 {
		v = math.Float64frombits(decimal.UlpBits(decimal.UlpOrd(math.Float64bits(v)) + resid))
	}
	return v
}

// blockEncoder is the pooled seal-time scratch of the raw store: the bit
// buffer, the run's timestamps and its value column. Under sustained
// ingest every series seals a block every CompressBlock points; fresh
// scratch per seal made the seal path the write side's main GC churn.
type blockEncoder struct {
	w     bitWriter
	nanos []int64 // the run's timestamps, validated
	col   colEnc
}

var encoderPool = sync.Pool{New: func() any { return new(blockEncoder) }}

// Block is a sealed compressed run of points. Blocks are immutable and
// safe for concurrent iteration: every iterator carries its own decode
// state.
type Block struct {
	data      []byte
	n         int
	firstNano int64
	lastNano  int64
}

// EncodeBlock compresses an append-ordered run of points. Timestamps must
// be non-decreasing (ErrOutOfOrder otherwise; equal stamps are allowed)
// and representable as int64 nanoseconds (ErrTimeRange otherwise). The
// returned block shares nothing with the pooled scratch.
func EncodeBlock(pts []series.Point) (Block, error) {
	if len(pts) == 0 {
		return Block{}, nil
	}
	e := encoderPool.Get().(*blockEncoder)
	defer encoderPool.Put(e)
	col := &e.col
	e.nanos, col.vals = e.nanos[:0], col.vals[:0]
	for i, p := range pts {
		if !unixNanoSafe(p.Time) {
			return Block{}, ErrTimeRange
		}
		nano := p.Time.UnixNano()
		if i > 0 && nano < e.nanos[i-1] {
			return Block{}, ErrOutOfOrder
		}
		e.nanos, col.vals = append(e.nanos, nano), append(col.vals, p.Value)
	}
	return e.pointBlock(), nil
}

// rawRun is the raw store's open block: the points appended since the
// last seal, coded as they arrive — the raw counterpart of a tier's
// bucketStream, and about a seventh of the 16 bytes a plain point takes
// on two-decimal telemetry. Every point is its instant (the first
// verbatim, then the sealed codec's delta-of-delta on dodLadder) and its
// value. Values are decimal while one exponent fits all of them: each
// mantissa's delta from the previous one (the first's from zero) on
// mantLadder, then its ulp residual, '0' or '1' and residBits of zigzag.
// A value the run's exponent cannot hold re-codes the run at the lowest
// exponent that fits it all, so the exponent only rises; a run no exponent
// fits (NaN, ±Inf, −0, binary-quantized readings) is re-coded on the XOR
// chain — the first value verbatim — and stays there until its seal.
//
// Nothing here decides a sealed byte: a seal decodes the run into the
// pooled seal scratch and plans the block there, so it is EncodeBlock of
// the same points. The buffer outlives its runs.
type rawRun struct {
	w                          bitWriter
	n                          int
	firstNano, lastNano, delta int64 // delta is the newest instant's, the chain's state
	xorForm                    bool
	exp                        uint  // the decimal form's exponent
	mant                       int64 // the newest mantissa
	chain                      xorState
}

// push appends one point.
func (r *rawRun) push(nano int64, v float64) {
	if !r.write(nano, v) {
		r.recode(nano, v)
	}
}

// write codes one point in the run's form, or writes nothing and reports
// false when its value does not fit the run's exponent.
func (r *rawRun) write(nano int64, v float64) bool {
	var m, resid int64
	if !r.xorForm {
		var ok bool
		if m, resid, ok = decimal.At(v, decimal.Pow10[r.exp]); !ok {
			return false
		}
	}
	if r.n == 0 {
		r.w.writeBits(uint64(nano), 64)
		r.firstNano, r.delta = nano, 0
	} else {
		delta := nano - r.lastNano
		dodLadder.write(&r.w, delta-r.delta)
		r.delta = delta
	}
	r.lastNano = nano
	r.n++
	switch {
	case !r.xorForm:
		mantLadder.write(&r.w, m-r.mant)
		r.mant = m
		if resid == 0 {
			r.w.writeBit(0)
		} else {
			r.w.writeBits(1<<residBits|zigzag(resid), 1+residBits)
		}
	case r.n == 1:
		r.chain = xorState{prev: math.Float64bits(v)}
		r.w.writeBits(r.chain.prev, 64)
	default:
		r.chain.write(&r.w, math.Float64bits(v))
	}
	return true
}

// recode rewrites the run with (nano, v) appended, at the lowest exponent
// not below the run's that fits every value, or on the XOR chain.
func (r *rawRun) recode(nano int64, v float64) {
	e := encoderPool.Get().(*blockEncoder)
	defer encoderPool.Put(e)
	r.gather(e)
	col := &e.col
	e.nanos, col.vals = append(e.nanos, nano), append(col.vals, v)
	col.exp = r.exp
	xorForm := !col.fitDecimal(len(col.vals))
	r.reset()
	r.xorForm, r.exp = xorForm, col.exp
	for i, t := range e.nanos {
		r.write(t, col.vals[i])
	}
}

// seal returns the run as a sealed block and empties it.
func (r *rawRun) seal() Block {
	e := encoderPool.Get().(*blockEncoder)
	defer encoderPool.Put(e)
	r.gather(e)
	r.reset()
	return e.pointBlock()
}

// reset empties the run, keeping its buffer.
func (r *rawRun) reset() {
	*r = rawRun{w: bitWriter{buf: r.w.buf[:0]}}
}

// gather decodes the run into e's seal scratch. The slices grow as locals
// and are stored back once: a store into the pooled encoder per point
// pays a write barrier whenever a collection is running.
func (r *rawRun) gather(e *blockEncoder) {
	nanos, vals := e.nanos[:0], e.col.vals[:0]
	it := r.iter()
	for it.Next() {
		nanos, vals = append(nanos, it.nano), append(vals, it.val)
	}
	e.nanos, e.col.vals = nanos, vals
}

// iter walks the run like a sealed block. The writer's buffer holds whole
// words; the bits still pending in it are the reader's tail. Readers share
// the run read-only.
func (r *rawRun) iter() BlockIter {
	it := BlockIter{n: r.n, r: bitReader{data: r.w.buf}, col: colDec{decimal: !r.xorForm, run: true, scale: decimal.Pow10[r.exp]}}
	if r.w.n > 0 {
		it.r.tail, it.r.tailN = r.w.acc<<(64-r.w.n), r.w.n
	}
	return it
}

// each emits the iterator's remaining points. Self-encoded blocks and
// runs cannot fail to decode.
func (it BlockIter) each(emit func(rawPoint)) {
	for it.Next() {
		emit(rawPoint{nano: it.nano, value: it.val})
	}
}

// pointBlock seals the non-empty, ordered run gathered in e.nanos and
// e.col.
func (e *blockEncoder) pointBlock() Block {
	col, n := &e.col, len(e.nanos)
	e.w.reset()
	col.plan()
	var tag uint64 // bit 0 set = the value column is decimal
	if col.decimal {
		tag = 1
	}
	e.w.writeBits(tag, 8)
	e.w.writeBits(uint64(e.nanos[0]), 64)
	col.write(&e.w, 0)
	prevDelta := int64(0)
	for i := 1; i < n; i++ {
		delta := e.nanos[i] - e.nanos[i-1]
		dodLadder.write(&e.w, delta-prevDelta)
		col.write(&e.w, i)
		prevDelta = delta
	}
	return Block{data: e.w.sealed(), n: n, firstNano: e.nanos[0], lastNano: e.nanos[n-1]}
}

// Len returns the number of points in the block.
func (blk Block) Len() int { return blk.n }

// Size returns the compressed payload size in bytes.
func (blk Block) Size() int { return len(blk.data) }

// Data returns the block's encoded payload. The slice is the block's own
// storage: callers persisting it (write-ahead logs, snapshots) must treat
// it as read-only.
func (blk Block) Data() []byte { return blk.data }

// RebuildBlock reconstitutes a sealed Block from a persisted payload
// (Data) and point count (Len). The whole payload is decoded once to
// validate it and to recover the block's time bounds, so a corrupt or
// truncated payload returns ErrCorruptBlock here rather than surfacing
// later on the query path.
func RebuildBlock(data []byte, n int) (Block, error) {
	if n <= 0 {
		return Block{}, ErrCorruptBlock
	}
	blk := Block{data: data, n: n}
	it := blk.Iter()
	first := true
	for it.Next() {
		if first {
			blk.firstNano = it.nano
			first = false
		}
		blk.lastNano = it.nano
	}
	if err := it.Err(); err != nil {
		return Block{}, err
	}
	if first {
		return Block{}, ErrCorruptBlock
	}
	return blk, nil
}

// First returns the first (oldest) timestamp; meaningless when Len is 0.
func (blk Block) First() time.Time { return time.Unix(0, blk.firstNano) }

// Last returns the last (newest) timestamp; meaningless when Len is 0.
func (blk Block) Last() time.Time { return time.Unix(0, blk.lastNano) }

// Points decodes the whole block, appending to dst (which may be nil).
// Decoded timestamps denote the exact appended instants (Time.Equal
// holds; the wall clock is rebuilt from UnixNano, so the Location
// normalizes and monotonic readings are dropped) and values are
// bit-identical.
func (blk Block) Points(dst []series.Point) ([]series.Point, error) {
	it := blk.Iter()
	for it.Next() {
		dst = append(dst, it.Point())
	}
	return dst, it.Err()
}

// Iter returns a fresh iterator positioned before the first point. A
// payload opens with the tag byte; a tag with bits beyond the value
// column's is corrupt.
func (blk Block) Iter() BlockIter {
	it := BlockIter{n: blk.n}
	switch {
	case blk.n == 0:
	case len(blk.data) == 0 || blk.data[0] > 1:
		it.r.err = ErrCorruptBlock
	default:
		it.r = newBitReader(blk.data[1:])
		it.col.decimal = blk.data[0] == 1
	}
	return it
}

// BlockIter walks a Block one point at a time without allocating.
type BlockIter struct {
	r         bitReader
	n         int
	i         int
	nano      int64
	prevDelta int64
	col       colDec
	val       float64
}

// Next advances to the next point, returning false at the end of the
// block or on a decode error (see Err).
func (it *BlockIter) Next() bool {
	if it.i >= it.n || it.r.err != nil {
		return false
	}
	if it.i == 0 {
		it.nano = int64(it.r.readBits(64))
		it.val = it.col.first(&it.r)
	} else {
		delta := it.prevDelta + dodLadder.read(&it.r)
		it.nano += delta
		it.prevDelta = delta
		it.val = it.col.next(&it.r)
	}
	if it.r.err != nil {
		return false
	}
	it.i++
	return true
}

// Point returns the current point. Valid only after a true Next.
func (it *BlockIter) Point() series.Point {
	return series.Point{Time: time.Unix(0, it.nano), Value: it.val}
}

// Err returns the decode error that stopped iteration, if any.
func (it *BlockIter) Err() error {
	if it.r.err != nil {
		return fmt.Errorf("%w (point %d of %d)", it.r.err, it.i, it.n)
	}
	return nil
}

// bucketBlock is the summary-tier counterpart of Block: a compressed run
// of min/max/sum/count buckets, coded as a chain of byte-aligned
// miniblocks (see bucketStream.add). Bucket blocks live only in memory —
// snapshots carry plain buckets — so their layout is free to change.
type bucketBlock struct {
	data      []byte
	n         int
	firstNano int64 // oldest start
	lastEnd   int64 // newest coverage end
	// samples is the sum of the bucket counts, kept so stats reporting
	// never has to decode a block under the shard lock.
	samples int64
}

func (bb bucketBlock) size() int { return len(bb.data) }

// miniLen is the most buckets one miniblock holds: few enough that field
// widths chosen per miniblock stay tight and that an open block stages
// under a kilobyte, enough that the header amortizes to a few bits.
const miniLen = 16

// The miniblock header byte: three flags and the entry count less one.
// Bit 4 is unused and must be zero.
const (
	miniContinues = 0x80 // the value chains carry over from the previous miniblock
	miniDecimal   = 0x40 // joint decimal form; the XOR chains otherwise
	miniRegular   = 0x20 // every start and width delta-of-delta is zero, and omitted
	miniSpare     = 0x10
	miniCountMask = 0x0f
)

const (
	// maxFieldBits bounds the four per-miniblock field widths of the
	// decimal form; a miniblock that needs more stays on the XOR chains.
	maxFieldBits = 53
	// decHeaderBits is the decimal form's width header: four 6-bit field
	// widths (count, min, max, sum) and three 3-bit residual widths.
	decHeaderBits = 4*6 + 3*3
	// xorWindowBits is what an XOR miniblock following a decimal one spends
	// to be handed the three chains' windows (present flag, 5-bit leading,
	// 6-bit length each) — and the margin by which the decimal form must
	// beat the XOR form to be taken, so that every such handover was paid
	// for by the decimal miniblock before it.
	xorWindowBits = 3 * 12
)

// sumGuess predicts a bucket's sum mantissa from its other columns: count
// samples averaging the midpoint of min and max. It is exact for buckets
// of one or two samples. The arithmetic wraps on overflow, identically on
// both sides.
func sumGuess(count, mn, mx int64) int64 { return count * (mn + mx) >> 1 }

// miniPlan is the decimal form of one miniblock as the encoder fits it:
// every min, max and sum as mantissa and ulp residual at one exponent,
// and the field widths the entries need.
type miniPlan struct {
	exp         uint
	mant, resid [3][miniLen]int64 // min, max, sum
	base        int64             // the smallest count
	width       [4]uint           // count, min, max, sum fields
	rbits       [3]uint
}

// fit fits all three value columns of bks at the smallest common exponent
// not below p.exp. A value that needs more digits raises the exponent and
// restarts the run.
func (p *miniPlan) fit(bks []bucket) bool {
	for i := 0; i < len(bks); i++ {
		vals := [3]float64{bks[i].min, bks[i].max, bks[i].sum}
		for c, v := range vals {
			m, r, ok := decimal.At(v, decimal.Pow10[p.exp])
			if !ok {
				if !raiseExp(v, &p.exp) {
					return false
				}
				i = -1
				break
			}
			p.mant[c][i], p.resid[c][i] = m, r
		}
	}
	return true
}

// measure sizes the fitted miniblock's fields — count above the smallest
// count, min as the mantissa delta along the chain from prevMant, max as
// the offset above min, sum as the residual against sumGuess — and returns
// the bits one entry takes, or false when the form does not apply: a
// bucket whose max is below its min, or a field wider than maxFieldBits.
func (p *miniPlan) measure(bks []bucket, prevMant int64) (entryBits int, ok bool) {
	p.base = bks[0].count
	for _, bk := range bks[1:] {
		p.base = min(p.base, bk.count)
	}
	var fields [4]uint64
	var resids [3]uint64
	for i, bk := range bks {
		mn, mx := p.mant[0][i], p.mant[1][i]
		if mx < mn {
			return 0, false
		}
		fields[0] |= uint64(bk.count - p.base)
		fields[1] |= zigzag(mn - prevMant)
		fields[2] |= uint64(mx - mn)
		fields[3] |= zigzag(p.mant[2][i] - sumGuess(bk.count, mn, mx))
		for c := range resids {
			resids[c] |= zigzag(p.resid[c][i])
		}
		prevMant = mn
	}
	for k, f := range fields {
		p.width[k] = uint(bits.Len64(f))
		if p.width[k] > maxFieldBits {
			return 0, false
		}
		entryBits += int(p.width[k])
	}
	for c, f := range resids {
		p.rbits[c] = uint(bits.Len64(f))
		entryBits += int(p.rbits[c])
	}
	return entryBits, true
}

// bucketStream is a bucket block under construction: the miniblocks
// written so far — a valid, iterable bucketBlock at every moment — and the
// chain state the next miniblock continues from. Every bucket is planned
// and written exactly once, so the open block of a tier stays compressed
// and sealing it is a copy of its bytes.
type bucketStream struct {
	blk bucketBlock

	// The last bucket's start, start delta, width and count: the chains
	// every miniblock after the first continues in either form.
	start, delta, width, count int64
	// decimal records the form of the last miniblock, exp the exponent of
	// the last fit that succeeded (the floor of the next, so exponents only
	// rise while a decimal chain lasts) and mant the last min mantissa.
	decimal bool
	exp     uint
	mant    int64
	// xor holds the min, max and sum XOR chains, advanced over every bucket
	// in either form: an XOR miniblock always costs what those entries
	// would in one unbroken chain.
	xor [3]xorState
}

// reset empties the stream, keeping its buffer.
func (s *bucketStream) reset() {
	*s = bucketStream{blk: bucketBlock{data: s.blk.data[:0]}}
}

// add appends up to miniLen buckets as one miniblock:
//
//	header byte, then bit-packed and zero-padded to a whole byte:
//	first miniblock of a block: start and width of its first bucket, 64 bits each
//	decimal form:  unless continuing: exponent (4 bits), previous min mantissa (52, zigzag)
//	               the widths header (decHeaderBits)
//	               the smallest count: 64 bits in a first miniblock, else a step from the last count
//	XOR form:      unless continuing or first: the three chains' windows (xorWindowBits)
//	per bucket:    start and width delta-of-deltas (unless first-of-block, or miniRegular)
//	               decimal: count − smallest | min mantissa delta, residual | max − min, residual |
//	                        sum − sumGuess, residual — at the header's widths
//	               XOR: min, max, sum chain steps and the count's delta-of-delta
//	                    (first-of-block: the four fields verbatim, 64 bits each)
//
// The decimal form applies when all three columns fit one exponent (see
// decimalAt) and is taken when it is smaller than the XOR form by
// xorWindowBits; an XOR miniblock costs exactly what its entries would in
// one unbroken run of the chains, so a block is never larger than that run
// by more than the header byte and padding of each miniblock.
func (s *bucketStream) add(bks []bucket) {
	first := s.blk.n == 0
	if first {
		s.blk.firstNano, s.blk.lastEnd = bks[0].start, math.MinInt64
	}

	// The two forms share the time chains; cost the XOR chains and the
	// count's, advancing s.xor to where this miniblock leaves them. chains
	// keeps where they stood: what the XOR form is written from.
	if first {
		s.xor[0].prev, s.xor[1].prev, s.xor[2].prev = math.Float64bits(bks[0].min), math.Float64bits(bks[0].max), math.Float64bits(bks[0].sum)
	}
	chains := s.xor
	regular, xorBits := true, 0
	prevStart, prevDelta, prevWidth, prevCount := s.start, s.delta, s.width, s.count
	for i, bk := range bks {
		width := bk.end - bk.start
		if first && i == 0 {
			xorBits += 4 * 64 // the chains open on this bucket, stored verbatim
		} else {
			delta := bk.start - prevStart
			regular = regular && delta == prevDelta && width == prevWidth
			prevDelta = delta
			xorBits += s.xor[0].cost(math.Float64bits(bk.min)) + s.xor[1].cost(math.Float64bits(bk.max)) +
				s.xor[2].cost(math.Float64bits(bk.sum)) + dodLadder.bits(bk.count-prevCount)
		}
		prevStart, prevWidth, prevCount = bk.start, width, bk.count
	}

	// Fit the decimal form. Its min chain continues from the previous
	// miniblock's when that was decimal at the same exponent; otherwise it
	// opens on this miniblock's first mantissa.
	p := miniPlan{exp: s.exp}
	prevMant := s.mant
	continues, useDecimal := !first && s.decimal, false
	if p.fit(bks) {
		if continues = continues && p.exp == s.exp; !continues {
			prevMant = p.mant[0][0]
		}
		s.exp = p.exp
		if entryBits, ok := p.measure(bks, prevMant); ok {
			decBits := decHeaderBits + len(bks)*entryBits
			if !continues {
				decBits += 4 + firstMantBits
			}
			if first {
				decBits += 64
			} else {
				decBits += stepLadder.bits(p.base - s.count)
			}
			useDecimal = decBits+xorWindowBits <= xorBits
		}
	} else {
		s.exp = 0
	}
	if !useDecimal {
		continues = !first && !s.decimal
	}

	w := bitWriter{buf: s.blk.data}
	header := uint64(len(bks) - 1)
	if continues {
		header |= miniContinues
	}
	if useDecimal {
		header |= miniDecimal
	}
	if regular {
		header |= miniRegular
	}
	w.writeBits(header, 8)
	if first {
		w.writeBits(uint64(bks[0].start), 64)
		w.writeBits(uint64(bks[0].end-bks[0].start), 64)
	}
	switch {
	case useDecimal:
		if !continues {
			w.writeBits(uint64(p.exp), 4)
			w.writeBits(zigzag(prevMant), firstMantBits)
		}
		w.writeBits(uint64(p.width[0])<<27|uint64(p.width[1])<<21|uint64(p.width[2])<<15|uint64(p.width[3])<<9|
			uint64(p.rbits[0])<<6|uint64(p.rbits[1])<<3|uint64(p.rbits[2]), decHeaderBits)
		if first {
			w.writeBits(uint64(p.base), 64)
		} else {
			stepLadder.write(&w, p.base-s.count)
		}
	case !continues && !first:
		for _, x := range chains {
			if x.haveWind {
				w.writeBits(1<<11|uint64(x.leading)<<6|uint64(x.sigbits-1), 12)
			} else {
				w.writeBits(0, 12)
			}
		}
	}
	prevStart, prevDelta, prevWidth, prevCount = s.start, s.delta, s.width, s.count
	for i, bk := range bks {
		width := bk.end - bk.start
		verbatim := first && i == 0
		if !verbatim {
			delta := bk.start - prevStart
			if !regular {
				dodLadder.write(&w, delta-prevDelta)
				dodLadder.write(&w, width-prevWidth)
			}
			prevDelta = delta
		}
		switch {
		case useDecimal:
			mn, mx := p.mant[0][i], p.mant[1][i]
			w.writeBits(uint64(bk.count-p.base), p.width[0])
			w.writeBits(zigzag(mn-prevMant), p.width[1])
			w.writeBits(zigzag(p.resid[0][i]), p.rbits[0])
			w.writeBits(uint64(mx-mn), p.width[2])
			w.writeBits(zigzag(p.resid[1][i]), p.rbits[1])
			w.writeBits(zigzag(p.mant[2][i]-sumGuess(bk.count, mn, mx)), p.width[3])
			w.writeBits(zigzag(p.resid[2][i]), p.rbits[2])
			prevMant = mn
		case verbatim:
			w.writeBits(math.Float64bits(bk.min), 64)
			w.writeBits(math.Float64bits(bk.max), 64)
			w.writeBits(math.Float64bits(bk.sum), 64)
			w.writeBits(uint64(bk.count), 64)
		default:
			chains[0].write(&w, math.Float64bits(bk.min))
			chains[1].write(&w, math.Float64bits(bk.max))
			chains[2].write(&w, math.Float64bits(bk.sum))
			dodLadder.write(&w, bk.count-prevCount)
		}
		prevStart, prevWidth, prevCount = bk.start, width, bk.count
		s.blk.lastEnd = max(s.blk.lastEnd, bk.end)
		s.blk.samples += bk.count
	}
	w.align()
	s.blk.data = w.buf
	s.blk.n += len(bks)
	s.start, s.delta, s.width, s.count = prevStart, prevDelta, prevWidth, prevCount
	s.decimal, s.mant = useDecimal, prevMant
}

// bucketIter walks a bucketBlock one bucket at a time without
// allocating. The decode state is local, so concurrent readers may
// iterate one block.
type bucketIter struct {
	r    bitReader
	n, i int
	left int // entries left in the current miniblock

	// The current miniblock's form, and the decimal form's widths, scale,
	// smallest count and running min mantissa.
	decimal, regular bool
	width            [4]uint
	rbits            [3]uint
	scale            float64
	base, mant       int64

	nano, prevDelta int64
	span            int64 // the current bucket's end − start
	count           int64
	xor             [3]xorState
	vals            [3]float64 // min, max, sum
}

func (bb bucketBlock) iter() bucketIter {
	return bucketIter{n: bb.n, r: newBitReader(bb.data)}
}

// open reads the next miniblock's header. A header the encoder cannot
// have written — an entry count past the block's, the spare bit, a chain
// continuing from nothing or across a change of form, an exponent or a
// field width out of range — is corrupt.
func (it *bucketIter) open() {
	r := &it.r
	r.align()
	h := r.readBits(8)
	first := it.i == 0
	continues, dec := h&miniContinues != 0, h&miniDecimal != 0
	it.left = int(h&miniCountMask) + 1
	if h&miniSpare != 0 || it.left > it.n-it.i || continues && (first || dec != it.decimal) {
		r.err = ErrCorruptBlock
		return
	}
	it.decimal, it.regular = dec, h&miniRegular != 0
	if first {
		it.nano = int64(r.readBits(64))
		it.span = int64(r.readBits(64))
	}
	switch {
	case dec:
		if !continues {
			exp := r.readBits(4)
			if exp > decimal.MaxExp {
				r.err = ErrCorruptBlock
				return
			}
			it.scale = decimal.Pow10[exp]
			it.mant = unzigzag(r.readBits(firstMantBits))
		}
		wh := r.readBits(decHeaderBits)
		for k := range it.width {
			it.width[k] = uint(wh >> (27 - 6*k) & 0x3f)
			if it.width[k] > maxFieldBits {
				r.err = ErrCorruptBlock
				return
			}
		}
		for c := range it.rbits {
			it.rbits[c] = uint(wh >> (6 - 3*c) & 7)
		}
		if first {
			it.base = int64(r.readBits(64))
		} else {
			it.base = it.count + stepLadder.read(r)
		}
	case !continues && !first:
		for c := range it.xor {
			win := r.readBits(12)
			x := xorState{prev: math.Float64bits(it.vals[c])}
			if win>>11 != 0 {
				x.leading, x.sigbits, x.haveWind = uint(win>>6&0x1f), uint(win&0x3f)+1, true
				if x.leading+x.sigbits > 64 {
					r.err = ErrCorruptBlock
					return
				}
			}
			it.xor[c] = x
		}
	}
}

// next advances to the next bucket, returning false at the end of the
// block or on a decode error (see err).
func (it *bucketIter) next() bool {
	if it.i >= it.n || it.r.err != nil {
		return false
	}
	r := &it.r
	verbatim := it.i == 0
	if it.left == 0 {
		if it.open(); r.err != nil {
			return false
		}
	}
	if !verbatim {
		if !it.regular {
			it.prevDelta += dodLadder.read(r)
			it.span += dodLadder.read(r)
		}
		it.nano += it.prevDelta
	}
	switch {
	case it.decimal:
		it.count = it.base + int64(r.readBits(it.width[0]))
		it.mant += unzigzag(r.readBits(it.width[1]))
		mn := it.mant
		it.vals[0] = it.value(mn, 0)
		mx := mn + int64(r.readBits(it.width[2]))
		it.vals[1] = it.value(mx, 1)
		sum := sumGuess(it.count, mn, mx) + unzigzag(r.readBits(it.width[3]))
		it.vals[2] = it.value(sum, 2)
	case verbatim:
		for c := range it.xor {
			it.xor[c].prev = r.readBits(64)
			it.vals[c] = math.Float64frombits(it.xor[c].prev)
		}
		it.count = int64(r.readBits(64))
	default:
		for c := range it.xor {
			it.vals[c] = math.Float64frombits(it.xor[c].read(r))
		}
		it.count += dodLadder.read(r)
	}
	if r.err != nil {
		return false
	}
	it.left--
	it.i++
	return true
}

// value reads column c's ulp residual and returns the value mant stands
// for in the current decimal miniblock.
func (it *bucketIter) value(mant int64, c int) float64 {
	if it.rbits[c] == 0 {
		return float64(mant) / it.scale
	}
	return decimalValue(mant, it.scale, unzigzag(it.r.readBits(it.rbits[c])))
}

// bucket returns the current bucket. Valid only after a true next.
func (it *bucketIter) bucket() bucket {
	return bucket{
		start: it.nano,
		end:   it.nano + it.span,
		min:   it.vals[0],
		max:   it.vals[1],
		sum:   it.vals[2],
		count: it.count,
	}
}

func (it *bucketIter) err() error {
	if it.r.err != nil {
		return fmt.Errorf("%w (bucket %d of %d)", it.r.err, it.i, it.n)
	}
	return nil
}

// each decodes the block in order, calling emit for every bucket.
func (bb bucketBlock) each(emit func(bucket)) error {
	it := bb.iter()
	for it.next() {
		emit(it.bucket())
	}
	return it.err()
}
