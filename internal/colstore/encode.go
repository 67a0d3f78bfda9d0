package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// This file holds the column codecs shared by the writer and the reader:
// delta-of-delta integer columns, scaled/raw float columns, dictionary
// string columns, bitsets, and the per-block compression pass. Encoders append to
// a []byte; decoders consume from a cursor with a sticky error so corrupt
// input surfaces as one error instead of a panic.

// appendIntColumn encodes vals as zigzag varints of the delta-of-delta
// sequence: v0, d1, d2-d1, d3-d2, ...
func appendIntColumn(dst []byte, vals []int64) []byte {
	var prev, prevDelta int64
	for i, v := range vals {
		switch i {
		case 0:
			dst = binary.AppendVarint(dst, v)
		case 1:
			prevDelta = v - prev
			dst = binary.AppendVarint(dst, prevDelta)
		default:
			d := v - prev
			dst = binary.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prev = v
	}
	return dst
}

const (
	floatRaw    = 0 // 8-byte bit patterns, XORed with the previous value
	floatScaled = 1 // decimal fixed point: scale exponent + integer column
)

// maxScaleExp bounds the decimal scales tried for the fixed-point float
// encoding: 10^0 .. 10^maxScaleExp.
const maxScaleExp = 4

var pow10 = [maxScaleExp + 1]float64{1, 10, 100, 1000, 10000}

// exactScaled reports whether v survives a round trip through
// round(v*scale)/scale bit-for-bit, along with the scaled integer.
func exactScaled(v, scale float64) (int64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	r := math.Round(v * scale)
	if math.Abs(r) >= 1<<53 {
		return 0, false
	}
	i := int64(r)
	if math.Float64bits(float64(i)/scale) != math.Float64bits(v) {
		return 0, false
	}
	return i, true
}

// scaledInts returns vals as integers under the smallest decimal scale that
// reproduces every value exactly, or ok=false when no scale ≤ 10^maxScaleExp
// does.
func scaledInts(vals []float64) (ints []int64, exp int, ok bool) {
	buf := make([]int64, 0, len(vals))
nextExp:
	for e := 0; e <= maxScaleExp; e++ {
		buf = buf[:0]
		for _, v := range vals {
			i, ok := exactScaled(v, pow10[e])
			if !ok {
				continue nextExp
			}
			buf = append(buf, i)
		}
		return buf, e, true
	}
	return nil, 0, false
}

// appendFloatColumn encodes vals either as decimal fixed point (lossless by
// the exactScaled check) or as raw XORed bit patterns.
func appendFloatColumn(dst []byte, vals []float64) []byte {
	if ints, exp, ok := scaledInts(vals); ok {
		dst = append(dst, floatScaled, byte(exp))
		return appendIntColumn(dst, ints)
	}
	dst = append(dst, floatRaw)
	var prev uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = binary.LittleEndian.AppendUint64(dst, bits^prev)
		prev = bits
	}
	return dst
}

// appendDictColumn encodes vals as a first-seen-order dictionary followed by
// one varint index per value.
func appendDictColumn(dst []byte, vals []string) []byte {
	idx := make(map[string]int)
	var dict []string
	for _, s := range vals {
		if _, ok := idx[s]; !ok {
			idx[s] = len(dict)
			dict = append(dict, s)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, s := range vals {
		dst = binary.AppendUvarint(dst, uint64(idx[s]))
	}
	return dst
}

// appendBitset encodes one bit per value, LSB-first within each byte.
func appendBitset(dst []byte, vals []bool) []byte {
	n := (len(vals) + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, n)...)
	for i, v := range vals {
		if v {
			dst[start+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

// blockCompressor turns one encoded block payload into its stored form. A
// writer (or compactor) configures exactly one at construction from
// Options.Codec and holds it for its lifetime, so the per-block hot path has
// no codec branching and every compressor buffer is reused across blocks —
// the returned payload is only valid until the next compress call.
//
// Compressing codecs fall back to codecRaw when compression would not shrink
// the payload; the reader dispatches on the per-block codec byte, so the
// fallback (and mixing codecs across a file's blocks) is invisible to it.
type blockCompressor interface {
	compress(raw []byte) (stored []byte, codec byte, err error)
}

// newBlockCompressor returns the compressor for a resolved (non-default)
// codec.
func newBlockCompressor(c Codec) blockCompressor {
	if c == CodecRaw {
		return rawCompressor{}
	}
	return &vsnapCompressor{}
}

// rawCompressor stores blocks verbatim.
type rawCompressor struct{}

func (rawCompressor) compress(raw []byte) ([]byte, byte, error) { return raw, codecRaw, nil }

// vsnapCompressor reuses one output buffer and one hash table across blocks;
// steady-state encode allocates nothing once the output buffer has grown to
// the working size.
type vsnapCompressor struct {
	dst   []byte
	table [vsnapTableSize]int32
}

func (c *vsnapCompressor) compress(raw []byte) ([]byte, byte, error) {
	c.dst = vsnapAppend(c.dst[:0], raw, c.table[:])
	if len(c.dst) >= len(raw) {
		return raw, codecRaw, nil
	}
	return c.dst, codecVSnap, nil
}

// decompressInto reverses a blockCompressor, dispatching on the per-block
// codec byte and validating the declared raw size. Raw blocks come back as
// the stored slice itself (zero-copy — on an mmap-backed reader that is a
// window straight into the page cache); vsnap blocks decode into the
// scratch's reused output buffer with no allocations; flate blocks — what
// every VTB writer produced before vsnap, still read but no longer written —
// inflate through the scratch's pooled decompressor (stdlib flate still
// allocates its Huffman state per stream). The result is only valid until
// the scratch's next use.
func decompressInto(stored []byte, codec byte, rawLen int, sc *decodeScratch) ([]byte, error) {
	switch codec {
	case codecRaw:
		if len(stored) != rawLen {
			return nil, fmt.Errorf("colstore: raw block is %d bytes, header says %d", len(stored), rawLen)
		}
		return stored, nil
	case codecVSnap:
		sc.raw = growBytes(sc.raw, rawLen)
		if err := vsnapDecode(sc.raw, stored); err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		return sc.raw, nil
	case codecFlate:
		if err := sc.flateReset(stored); err != nil {
			return nil, fmt.Errorf("colstore: inflate block: %w", err)
		}
		sc.raw = growBytes(sc.raw, rawLen)
		if _, err := io.ReadFull(sc.fr, sc.raw); err != nil {
			return nil, fmt.Errorf("colstore: inflate block: %w", err)
		}
		// The stream must end exactly at rawLen.
		var one [1]byte
		if _, err := io.ReadFull(sc.fr, one[:]); err != io.EOF {
			return nil, fmt.Errorf("colstore: inflated block exceeds declared %d bytes", rawLen)
		}
		return sc.raw, nil
	default:
		return nil, fmt.Errorf("colstore: unknown block codec %d", codec)
	}
}

// cursor consumes an encoded block payload with a sticky error.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("colstore: "+format, args...)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail("truncated payload: need %d bytes at offset %d of %d", n, c.off, len(c.b))
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// count reads the row count for a column group and bounds it by the payload
// size so corrupt input cannot drive huge allocations.
func (c *cursor) count() int {
	v := c.uvarint()
	if c.err == nil && v > uint64(len(c.b)) {
		c.fail("row count %d exceeds payload size %d", v, len(c.b))
		return 0
	}
	return int(v)
}

// intColumnInto decodes n delta-of-delta varints, appending to out (callers
// pass a reused slice truncated to zero) and returning it.
func (c *cursor) intColumnInto(n int, out []int64) []int64 {
	// Sized once, so a column of a fresh batch (DecodeBlock) is not grown by
	// doubling; a value takes at least a byte, which bounds a corrupt n.
	out = slices.Grow(out, min(n, len(c.b)-c.off))
	var prev, prevDelta int64
	for i := 0; i < n; i++ {
		z := c.varint()
		switch i {
		case 0:
			prev = z
		case 1:
			prevDelta = z
			prev += z
		default:
			prevDelta += z
			prev += prevDelta
		}
		out = append(out, prev)
	}
	return out
}

// floatColumnInto decodes one float column, appending to out and returning
// it. The scaled mode borrows the scratch's int64 intermediate.
func (c *cursor) floatColumnInto(n int, out []float64, sc *decodeScratch) []float64 {
	mode := c.bytes(1)
	if c.err != nil {
		return out
	}
	switch mode[0] {
	case floatScaled:
		expB := c.bytes(1)
		if c.err != nil {
			return out
		}
		if expB[0] > maxScaleExp {
			c.fail("bad float scale exponent %d", expB[0])
			return out
		}
		scale := pow10[expB[0]]
		sc.i64 = c.intColumnInto(n, sc.i64[:0])
		out = slices.Grow(out, len(sc.i64))
		for _, i := range sc.i64 {
			out = append(out, float64(i)/scale)
		}
	case floatRaw:
		raw := c.bytes(8 * n)
		if c.err != nil {
			return out
		}
		out = slices.Grow(out, n)
		var prev uint64
		for i := 0; i < n; i++ {
			prev ^= binary.LittleEndian.Uint64(raw[8*i:])
			out = append(out, math.Float64frombits(prev))
		}
	default:
		c.fail("unknown float column mode %d", mode[0])
	}
	return out
}

// dictColumnInto decodes one dictionary column, appending to out and
// returning it. Dictionary entries go through the scratch's interning table,
// so a steady-state scan allocates a string only for names it has never seen.
func (c *cursor) dictColumnInto(n int, out []string, sc *decodeScratch) []string {
	dictLen := c.count()
	sc.dict = sc.dict[:0]
	for i := 0; i < dictLen; i++ {
		l := c.count()
		b := c.bytes(l)
		if c.err != nil {
			return out
		}
		sc.dict = append(sc.dict, sc.intern(b))
	}
	out = slices.Grow(out, min(n, len(c.b)-c.off))
	for i := 0; i < n; i++ {
		idx := c.uvarint()
		if c.err != nil {
			return out
		}
		if idx >= uint64(len(sc.dict)) {
			c.fail("dictionary index %d out of range (%d entries)", idx, len(sc.dict))
			return out
		}
		out = append(out, sc.dict[idx])
	}
	return out
}

// bitsetInto decodes n bits, appending to out and returning it.
func (c *cursor) bitsetInto(n int, out []bool) []bool {
	raw := c.bytes((n + 7) / 8)
	if c.err != nil {
		return out
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, raw[i/8]&(1<<uint(i%8)) != 0)
	}
	return out
}
