package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// Writer streams one row kind into a VTB file: rows buffer up to a block,
// the kind's encoder turns the block into a column payload plus its zone map,
// and the block is compressed and written, framed, on the caller's goroutine
// inside the Write that fills it. Close writes the pending block and the
// footer. Feed it from the generation pipeline's emit callback
// (trajectory.Merge delivers samples in global time order, which makes the
// zone maps maximally selective). The caller owns the io.Writer; Close
// flushes the format but does not close it. The first write error is sticky:
// every later Write and Close returns it without calling the io.Writer
// again. A Writer is not safe for concurrent use.
type Writer[T any] struct {
	w    io.Writer
	kind Kind
	opts Options
	// encode appends the block's column payload to p[:0] and summarizes the
	// rows; it owns whatever column slices it reuses from block to block.
	encode func(rows []T, p []byte) ([]byte, ZoneMap)
	comp   vsnapCompressor

	buf     []T    // the block being filled
	payload []byte // reused encode (and footer) buffer
	// frame holds the header, then each block's frame, as it is written: a
	// field, so that handing it to the io.Writer allocates nothing.
	frame [9]byte

	off, flushed int64
	wroteHeader  bool
	closed       bool
	err          error

	offsets []int64
	zones   []ZoneMap
}

// TrajectoryWriter and RSSIWriter are the two instantiations of Writer.
type (
	TrajectoryWriter = Writer[trajectory.Sample]
	RSSIWriter       = Writer[rssi.Measurement]
)

// NewTrajectoryWriter returns a streaming trajectory writer; the zero Options
// select the defaults.
func NewTrajectoryWriter(w io.Writer, opts Options) *TrajectoryWriter {
	return newWriter(w, KindTrajectory, opts, new(trajectoryEncoder).encode)
}

// NewRSSIWriter returns a streaming RSSI writer; the zero Options select the
// defaults.
func NewRSSIWriter(w io.Writer, opts Options) *RSSIWriter {
	return newWriter(w, KindRSSI, opts, new(rssiEncoder).encode)
}

func newWriter[T any](w io.Writer, kind Kind, opts Options, encode func([]T, []byte) ([]byte, ZoneMap)) *Writer[T] {
	opts = opts.withDefaults()
	return &Writer[T]{w: w, kind: kind, opts: opts, encode: encode, buf: make([]T, 0, opts.BlockSize)}
}

// Reset starts a new image on dst, keeping the row buffer, the encoder's
// columns, the payload buffer and the compressor: a caller that writes many
// small images — one per served response — allocates them once, not per image.
func (w *Writer[T]) Reset(dst io.Writer) {
	w.w, w.off, w.flushed, w.wroteHeader, w.closed, w.err = dst, 0, 0, false, false, nil
	w.buf, w.offsets, w.zones = w.buf[:0], w.offsets[:0], w.zones[:0]
}

// Write appends one row, writing the block when it is full.
func (w *Writer[T]) Write(row T) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("colstore: write after Close")
	}
	w.buf = append(w.buf, row)
	if len(w.buf) >= w.opts.BlockSize {
		w.flushed = w.off
		w.flush()
	}
	return w.err
}

// Flushed returns the image bytes, header included, of every block before the
// last full block written — the whole image after Close. It trails what the
// io.Writer has received by that one block, so it is a function of the rows
// written so far, and a segment log that rolls on it rolls a block late.
func (w *Writer[T]) Flushed() int64 { return w.flushed }

// Close writes the pending block and the footer index.
func (w *Writer[T]) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if len(w.buf) > 0 {
		w.flush()
	}
	w.writeHeader() // empty files still carry header + footer
	w.writeFooter()
	w.flushed = w.off
	return w.err
}

// flush encodes the rows in buf as one block and writes it.
func (w *Writer[T]) flush() {
	if w.err == nil {
		var zm ZoneMap
		w.payload, zm = w.encode(w.buf, w.payload)
		w.writeBlock(w.payload, zm)
	}
	w.buf = w.buf[:0]
}

// writeBlock frames and writes one encoded payload and records its zone map.
func (w *Writer[T]) writeBlock(raw []byte, zm ZoneMap) {
	w.writeHeader()
	stored, codec := w.comp.compress(raw)
	w.offsets = append(w.offsets, w.off)
	w.zones = append(w.zones, zm)
	frame := w.frame[:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(stored)))
	frame[4] = codec
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(raw)))
	w.write(frame)
	w.write(stored)
}

func (w *Writer[T]) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	if err != nil {
		w.err = fmt.Errorf("colstore: write: %w", err)
	}
}

func (w *Writer[T]) writeHeader() {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	hdr := w.frame[:headerSize]
	clear(hdr)
	copy(hdr[:4], magicHead[:])
	hdr[4] = version
	hdr[5] = byte(w.kind)
	w.write(hdr)
}

// footerEntrySize is the fixed wire size of one zone-map entry.
const footerEntrySize = 8 + 4 + 2*8 + 4*8 + 2*4 + 8 + 2*4

// writeFooter writes the zone-map index and the tail, assembled in the
// payload buffer, which no block needs any more.
func (w *Writer[T]) writeFooter() {
	footerOff := w.off
	buf := slices.Grow(w.payload[:0], 4+len(w.zones)*footerEntrySize+tailSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.zones)))
	for i, zm := range w.zones {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.offsets[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(zm.Count))
		buf = appendF64(buf, zm.T0)
		buf = appendF64(buf, zm.T1)
		buf = appendF64(buf, zm.Box.Min.X)
		buf = appendF64(buf, zm.Box.Min.Y)
		buf = appendF64(buf, zm.Box.Max.X)
		buf = appendF64(buf, zm.Box.Max.Y)
		var minSat, maxSat bool
		buf, minSat = appendBound32(buf, zm.FloorMin)
		buf, maxSat = appendBound32(buf, zm.FloorMax)
		if minSat || maxSat {
			zm.FloorMask = 0 // its bits are relative to a bound the reader drops
		}
		buf = binary.LittleEndian.AppendUint64(buf, zm.FloorMask)
		buf, _ = appendBound32(buf, zm.ObjMin)
		buf, _ = appendBound32(buf, zm.ObjMax)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(footerOff))
	buf = append(buf, magicTail[:]...)
	w.payload = buf
	w.write(buf)
}

// appendBound32 appends a zone-map bound as an int32, saturated to the int32
// range; it reports whether v saturated (reached either end of the range),
// which the reader takes as an open bound.
func appendBound32(buf []byte, v int) ([]byte, bool) {
	c := min(max(v, math.MinInt32), math.MaxInt32)
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(c))), c == math.MinInt32 || c == math.MaxInt32
}

// trajectoryEncoder splits trajectory rows into its reused columns. The
// string columns keep their dictionaries from block to block, so a name is
// coded once per file, not once per block.
type trajectoryEncoder struct {
	cols TrajectoryBatch
	dict dictScratch
	ints []int64 // appendFloatColumn's scratch
}

func (e *trajectoryEncoder) encode(samples []trajectory.Sample, p []byte) ([]byte, ZoneMap) {
	zm := ZoneMap{
		Count: len(samples),
		T0:    samples[0].T, T1: samples[0].T,
		Box:      geom.EmptyBBox(),
		FloorMin: samples[0].Loc.Floor, FloorMax: samples[0].Loc.Floor,
		ObjMin: samples[0].ObjID, ObjMax: samples[0].ObjID,
	}
	c := &e.cols
	c.Reset()
	for _, s := range samples {
		c.Append(s)
		zm.T0, zm.T1 = min(zm.T0, s.T), max(zm.T1, s.T)
		zm.FloorMin, zm.FloorMax = min(zm.FloorMin, s.Loc.Floor), max(zm.FloorMax, s.Loc.Floor)
		zm.ObjMin, zm.ObjMax = min(zm.ObjMin, s.ObjID), max(zm.ObjMax, s.ObjID)
		if s.Loc.HasPoint {
			zm.Box = zm.Box.ExtendPoint(s.Loc.Point)
		}
	}
	if span := zm.FloorMax - zm.FloorMin; span < 64 {
		for _, s := range samples {
			zm.FloorMask |= 1 << uint(s.Loc.Floor-zm.FloorMin)
		}
	}

	return appendTrajectoryPayload(p[:0], c, &e.dict, &e.ints), zm
}

// appendTrajectoryPayload appends c's rows to p as one block payload: the
// row count, then each column.
func appendTrajectoryPayload(p []byte, c *TrajectoryBatch, d *dictScratch, ints *[]int64) []byte {
	p = binary.AppendUvarint(p, uint64(c.Len()))
	p = appendIntColumn(p, c.ObjID)
	p = appendDictColumn(p, &c.Building, d)
	p = appendIntColumn(p, c.Floor)
	p = appendDictColumn(p, &c.Partition, d)
	p = appendFloatColumn(p, c.X, ints)
	p = appendFloatColumn(p, c.Y, ints)
	p = appendFloatColumn(p, c.T, ints)
	return appendBitset(p, c.HasPoint)
}

// rssiEncoder splits RSSI rows into its reused columns; see
// trajectoryEncoder.
type rssiEncoder struct {
	cols RSSIBatch
	dict dictScratch
	ints []int64
}

func (e *rssiEncoder) encode(ms []rssi.Measurement, p []byte) ([]byte, ZoneMap) {
	zm := ZoneMap{
		Count: len(ms),
		T0:    ms[0].T, T1: ms[0].T,
		Box:    geom.EmptyBBox(),
		ObjMin: ms[0].ObjID, ObjMax: ms[0].ObjID,
	}
	c := &e.cols
	c.Reset()
	for _, m := range ms {
		c.Append(m)
		zm.T0, zm.T1 = min(zm.T0, m.T), max(zm.T1, m.T)
		zm.ObjMin, zm.ObjMax = min(zm.ObjMin, m.ObjID), max(zm.ObjMax, m.ObjID)
	}

	p = binary.AppendUvarint(p[:0], uint64(len(ms)))
	p = appendIntColumn(p, c.ObjID)
	p = appendDictColumn(p, &c.DeviceID, &e.dict)
	p = appendFloatColumn(p, c.RSSI, &e.ints)
	p = appendFloatColumn(p, c.T, &e.ints)
	return p, zm
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
