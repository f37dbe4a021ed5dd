// The compressed-block codec: Gorilla-style delta-of-delta timestamps and
// XOR-chained values packed into a bit stream, the format that lets a
// network-facing store hold roughly an order of magnitude more points per
// byte than []Point slices.
//
// The scheme follows Facebook's Gorilla (VLDB 2015), adapted to
// nanosecond timestamps:
//
//   - The first point's timestamp and value are stored verbatim (64 bits
//     each). Every later timestamp stores the delta-of-delta — the change
//     in inter-sample spacing — which is exactly zero on a regular poll
//     grid. A zero costs one bit; jittered grids cost a few bytes; an
//     arbitrary shift falls back to a full 64-bit field.
//
//   - Every later value stores the XOR against its predecessor. Repeated
//     readings (idle counters, quantized gauges — most of a production
//     fleet) cost one bit; slowly moving readings share sign, exponent
//     and high mantissa bits and store only the short meaningful window.
//
// Both encodings are bijective: decoding returns the exact UnixNano
// instants and bit-identical float64 values that were appended, NaN
// payloads included. Blocks refuse decreasing timestamps (equal stamps
// are allowed — production pollers do emit duplicates) and timestamps
// outside the int64-nanosecond range; both come back as ErrOutOfOrder /
// ErrTimeRange so callers can seal and start a fresh block.
//
// This comment documents the file; the package doc lives in tsdb.go.

package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/series"
)

var (
	// ErrOutOfOrder is returned by BlockBuilder.Append for a timestamp
	// earlier than the previous one. Blocks are time-ordered by
	// construction; callers seal the block and start a new one instead.
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
func unixNanoSafe(t time.Time) bool {
	// time.Unix(0, n) covers 1678-09-21 .. 2262-04-11; compare against
	// the representable extremes directly.
	return !t.Before(minUnixNano) && !t.After(maxUnixNano)
}

var (
	minUnixNano = time.Unix(0, math.MinInt64)
	maxUnixNano = time.Unix(0, math.MaxInt64)
)

// bitWriter packs MSB-first bit fields into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  byte
	free uint // bits still free in cur (8 when cur is empty)
}

func newBitWriter() *bitWriter { return &bitWriter{free: 8} }

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// writeBits appends the low n bits of v, most significant first. n ≤ 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		take := n
		if take > w.free {
			take = w.free
		}
		shift := n - take
		chunk := byte(v>>shift) & byte((1<<take)-1)
		w.cur |= chunk << (w.free - take)
		w.free -= take
		n -= take
		if w.free == 0 {
			w.buf = append(w.buf, w.cur)
			w.cur = 0
			w.free = 8
		}
	}
}

// bytes returns the encoded stream, flushing any partial byte.
func (w *bitWriter) bytes() []byte {
	if w.free == 8 {
		return w.buf
	}
	return append(w.buf, w.cur)
}

// size returns the current encoded size in bytes, counting a partial
// byte as a full one.
func (w *bitWriter) size() int {
	n := len(w.buf)
	if w.free != 8 {
		n++
	}
	return n
}

// bitReader consumes MSB-first bit fields from a byte slice. It is a
// value type so concurrent readers can each iterate a shared block
// without touching shared state.
type bitReader struct {
	data []byte
	byte int  // index of the next byte to load from
	left uint // bits not yet consumed in data[byte]
	err  error
}

func newBitReader(data []byte) bitReader {
	r := bitReader{data: data}
	if len(data) > 0 {
		r.left = 8
	}
	return r
}

func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// readBits returns the next n bits as the low bits of a uint64. On
// underflow it sets err and returns 0.
func (r *bitReader) readBits(n uint) uint64 {
	var v uint64
	for n > 0 {
		if r.byte >= len(r.data) {
			r.err = ErrCorruptBlock
			return 0
		}
		take := n
		if take > r.left {
			take = r.left
		}
		shift := r.left - take
		chunk := (r.data[r.byte] >> shift) & byte((1<<take)-1)
		v = v<<take | uint64(chunk)
		r.left -= take
		n -= take
		if r.left == 0 {
			r.byte++
			r.left = 8
		}
	}
	return v
}

// zigzag maps signed to unsigned so small-magnitude values of either
// sign get small codes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Delta-of-delta bucket sizes. Nanosecond grids make the classic Gorilla
// second-scale buckets useless, so the ladder is: 0 → one bit;
// sub-millisecond jitter → '10' + 21 bits; sub-4-second shifts → '110' +
// 33 bits; anything → '111' + 64 bits. All bucketed fields are zigzagged.
const (
	dodSmallBits = 21
	dodMidBits   = 33
)

// writeDoD appends one delta-of-delta (or any small-signed-int chain
// step: the bucket-block codec reuses it for widths and counts).
func writeDoD(w *bitWriter, dod int64) {
	z := zigzag(dod)
	switch {
	case z == 0:
		w.writeBit(0)
	case z < 1<<dodSmallBits:
		w.writeBits(0b10, 2)
		w.writeBits(z, dodSmallBits)
	case z < 1<<dodMidBits:
		w.writeBits(0b110, 3)
		w.writeBits(z, dodMidBits)
	default:
		w.writeBits(0b111, 3)
		w.writeBits(z, 64)
	}
}

func readDoD(r *bitReader) int64 {
	if r.readBit() == 0 {
		return 0
	}
	if r.readBit() == 0 {
		return unzigzag(r.readBits(dodSmallBits))
	}
	if r.readBit() == 0 {
		return unzigzag(r.readBits(dodMidBits))
	}
	return unzigzag(r.readBits(64))
}

// xorState is one Gorilla XOR value chain: the previous value plus the
// previous meaningful-bit window.
type xorState struct {
	prev     uint64
	leading  uint
	sigbits  uint
	haveWind bool
}

// write encodes v against the chain and advances it.
func (s *xorState) write(w *bitWriter, v uint64) {
	x := v ^ s.prev
	s.prev = v
	if x == 0 {
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	lead := uint(bits.LeadingZeros64(x))
	if lead > 31 {
		lead = 31
	}
	trail := uint(bits.TrailingZeros64(x))
	sig := 64 - lead - trail
	// Reuse the previous window when the new meaningful bits fit inside
	// it — both ends — and it is not grossly oversized (the classic
	// heuristic: a stale wide window would pad every subsequent value).
	if s.haveWind && lead >= s.leading && trail >= 64-s.leading-s.sigbits && s.sigbits < sig+12 {
		w.writeBit(0)
		w.writeBits(x>>(64-s.leading-s.sigbits), s.sigbits)
		return
	}
	w.writeBit(1)
	w.writeBits(uint64(lead), 5)
	w.writeBits(uint64(sig-1), 6)
	w.writeBits(x>>trail, sig)
	s.leading, s.sigbits, s.haveWind = lead, sig, true
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

// BlockBuilder incrementally encodes an append-ordered run of points
// into one compressed block. The zero value is not usable; call
// NewBlockBuilder. Builders are reusable via Reset and are not safe for
// concurrent use.
type BlockBuilder struct {
	w         *bitWriter
	n         int
	firstNano int64
	lastNano  int64
	prevDelta int64
	vals      xorState
}

// NewBlockBuilder returns an empty builder.
func NewBlockBuilder() *BlockBuilder { return &BlockBuilder{w: newBitWriter()} }

// Len returns the number of points appended so far.
func (b *BlockBuilder) Len() int { return b.n }

// Size returns the current encoded size in bytes.
func (b *BlockBuilder) Size() int { return b.w.size() }

// Reset clears the builder for a fresh block, keeping the buffer.
func (b *BlockBuilder) Reset() {
	b.w.buf = b.w.buf[:0]
	b.w.cur, b.w.free = 0, 8
	*b = BlockBuilder{w: b.w}
}

// Append encodes one point. Timestamps must be non-decreasing within a
// block (ErrOutOfOrder otherwise) and representable as int64 nanoseconds
// (ErrTimeRange otherwise); on error the block is unchanged.
func (b *BlockBuilder) Append(t time.Time, v float64) error {
	if !unixNanoSafe(t) {
		return ErrTimeRange
	}
	nano := t.UnixNano()
	if b.n == 0 {
		b.w.writeBits(uint64(nano), 64)
		b.w.writeBits(math.Float64bits(v), 64)
		b.vals.prev = math.Float64bits(v)
		b.firstNano, b.lastNano = nano, nano
		b.n = 1
		return nil
	}
	if nano < b.lastNano {
		return ErrOutOfOrder
	}
	delta := nano - b.lastNano
	writeDoD(b.w, delta-b.prevDelta)
	b.vals.write(b.w, math.Float64bits(v))
	b.prevDelta = delta
	b.lastNano = nano
	b.n++
	return nil
}

// Finish seals the builder into an immutable Block. The builder must be
// Reset before reuse.
func (b *BlockBuilder) Finish() Block {
	data := append([]byte(nil), b.w.bytes()...)
	return Block{data: data, n: b.n, firstNano: b.firstNano, lastNano: b.lastNano}
}

// Block is a sealed compressed run of points. Blocks are immutable and
// safe for concurrent iteration: every iterator carries its own decode
// state.
type Block struct {
	data      []byte
	n         int
	firstNano int64
	lastNano  int64
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

// Iter returns a fresh iterator positioned before the first point.
func (blk Block) Iter() BlockIter {
	return BlockIter{r: newBitReader(blk.data), n: blk.n}
}

// BlockIter walks a Block one point at a time without allocating.
type BlockIter struct {
	r         bitReader
	n         int
	i         int
	nano      int64
	prevDelta int64
	vals      xorState
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
		bits := it.r.readBits(64)
		it.vals.prev = bits
		it.val = math.Float64frombits(bits)
	} else {
		delta := it.prevDelta + readDoD(&it.r)
		it.nano += delta
		it.prevDelta = delta
		it.val = math.Float64frombits(it.vals.read(&it.r))
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

// EncodeBlock compresses an append-ordered run of points in one call.
func EncodeBlock(pts []series.Point) (Block, error) {
	b := NewBlockBuilder()
	for _, p := range pts {
		if err := b.Append(p.Time, p.Value); err != nil {
			return Block{}, err
		}
	}
	return b.Finish(), nil
}

// blockBuilderPool recycles encode scratch — the builder struct and its
// bit buffer — across seals. Under sustained ingest every series seals a
// block every CompressBlock points; a fresh builder per seal made the
// seal path the write side's main GC churn.
var blockBuilderPool = sync.Pool{New: func() any { return NewBlockBuilder() }}

// encodeBlockPooled is EncodeBlock with pooled scratch. Finish copies the
// payload into the immutable Block, so the returned block shares nothing
// with the pooled builder.
func encodeBlockPooled(pts []series.Point) (Block, error) {
	b := blockBuilderPool.Get().(*BlockBuilder)
	b.Reset()
	for _, p := range pts {
		if err := b.Append(p.Time, p.Value); err != nil {
			blockBuilderPool.Put(b)
			return Block{}, err
		}
	}
	blk := b.Finish()
	blockBuilderPool.Put(b)
	return blk, nil
}

// bucketBlock is the summary-tier counterpart of Block: a sealed
// compressed run of min/max/mean buckets. Starts ride a delta-of-delta
// chain (tier grids are regular), widths and counts ride their own
// small-delta chains (constant per tier between retunes), and min, max
// and sum are XOR chains against their own predecessors.
type bucketBlock struct {
	data      []byte
	n         int
	firstNano int64 // oldest start
	lastEnd   int64 // newest coverage end
	// samples is the sum of the bucket counts, kept so stats reporting
	// never has to decode a sealed block under the shard lock.
	samples int64
}

func (bb bucketBlock) size() int { return len(bb.data) }

// firstStart is the oldest bucket's start; coverageEnd the newest
// coverage end. Both are block metadata: no decode.
func (bb bucketBlock) firstStart() time.Time  { return time.Unix(0, bb.firstNano) }
func (bb bucketBlock) coverageEnd() time.Time { return time.Unix(0, bb.lastEnd) }

type bucketBlockBuilder struct {
	w         *bitWriter
	n         int
	firstNano int64
	lastStart int64
	lastEnd   int64
	prevDelta int64
	prevWidth int64
	prevCount int64
	samples   int64
	min, max  xorState
	sum       xorState
}

func newBucketBlockBuilder() *bucketBlockBuilder {
	return &bucketBlockBuilder{w: newBitWriter()}
}

// bucketBuilderPool is blockBuilderPool for tier seals: a series carries
// no idle encode buffer per tier.
var bucketBuilderPool = sync.Pool{New: func() any { return newBucketBlockBuilder() }}

// encodeBucketBlockPooled compresses an ordered run of buckets with
// pooled scratch; finish copies the payload out of the pooled builder.
func encodeBucketBlockPooled(bks []bucket) (bucketBlock, error) {
	b := bucketBuilderPool.Get().(*bucketBlockBuilder)
	defer bucketBuilderPool.Put(b)
	b.reset()
	for _, bk := range bks {
		if err := b.append(bk); err != nil {
			return bucketBlock{}, err
		}
	}
	return b.finish(), nil
}

func (b *bucketBlockBuilder) reset() {
	b.w.buf = b.w.buf[:0]
	b.w.cur, b.w.free = 0, 8
	*b = bucketBlockBuilder{w: b.w}
}

// append encodes one bucket. Bucket starts must be non-decreasing; both
// bounds must be UnixNano-representable.
func (b *bucketBlockBuilder) append(bk bucket) error {
	if !unixNanoSafe(bk.start) || !unixNanoSafe(bk.end) {
		return ErrTimeRange
	}
	start, end := bk.start.UnixNano(), bk.end.UnixNano()
	width := end - start
	if b.n == 0 {
		b.w.writeBits(uint64(start), 64)
		b.w.writeBits(uint64(width), 64)
		b.w.writeBits(math.Float64bits(bk.min), 64)
		b.w.writeBits(math.Float64bits(bk.max), 64)
		b.w.writeBits(math.Float64bits(bk.sum), 64)
		b.w.writeBits(uint64(bk.count), 64)
		b.min.prev = math.Float64bits(bk.min)
		b.max.prev = math.Float64bits(bk.max)
		b.sum.prev = math.Float64bits(bk.sum)
		b.firstNano, b.lastStart, b.lastEnd = start, start, end
		b.prevWidth, b.prevCount = width, bk.count
		b.samples = bk.count
		b.n = 1
		return nil
	}
	if start < b.lastStart {
		return ErrOutOfOrder
	}
	delta := start - b.lastStart
	writeDoD(b.w, delta-b.prevDelta)
	writeDoD(b.w, width-b.prevWidth)
	b.min.write(b.w, math.Float64bits(bk.min))
	b.max.write(b.w, math.Float64bits(bk.max))
	b.sum.write(b.w, math.Float64bits(bk.sum))
	writeDoD(b.w, bk.count-b.prevCount)
	b.prevDelta, b.lastStart = delta, start
	b.prevWidth, b.prevCount = width, bk.count
	if end > b.lastEnd {
		b.lastEnd = end
	}
	b.samples += bk.count
	b.n++
	return nil
}

func (b *bucketBlockBuilder) finish() bucketBlock {
	data := append([]byte(nil), b.w.bytes()...)
	return bucketBlock{data: data, n: b.n, firstNano: b.firstNano, lastEnd: b.lastEnd, samples: b.samples}
}

// each decodes the block in order, calling emit for every bucket. The
// decode state is local, so concurrent readers may iterate one block.
func (bb bucketBlock) each(emit func(bucket)) error {
	r := newBitReader(bb.data)
	var (
		nano      int64
		prevDelta int64
		width     int64
		count     int64
		mn, mx, s xorState
	)
	for i := 0; i < bb.n; i++ {
		if i == 0 {
			nano = int64(r.readBits(64))
			width = int64(r.readBits(64))
			mn.prev = r.readBits(64)
			mx.prev = r.readBits(64)
			s.prev = r.readBits(64)
			count = int64(r.readBits(64))
		} else {
			delta := prevDelta + readDoD(&r)
			nano += delta
			prevDelta = delta
			width += readDoD(&r)
			mn.read(&r)
			mx.read(&r)
			s.read(&r)
			count += readDoD(&r)
		}
		if r.err != nil {
			return fmt.Errorf("%w (bucket %d of %d)", r.err, i, bb.n)
		}
		emit(bucket{
			start: time.Unix(0, nano),
			end:   time.Unix(0, nano+width),
			min:   math.Float64frombits(mn.prev),
			max:   math.Float64frombits(mx.prev),
			sum:   math.Float64frombits(s.prev),
			count: count,
		})
	}
	return nil
}
