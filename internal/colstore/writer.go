package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// blockWriter owns the kind-independent file machinery: header, block
// framing, zone-map accumulation, and the footer. Writer feeds it encoded
// payloads plus their zone maps; every block is compressed by its one
// vsnapCompressor, whose buffers are reused across blocks.
type blockWriter struct {
	w    io.Writer
	opts Options
	kind Kind
	comp vsnapCompressor

	off         int64
	wroteHeader bool
	closed      bool
	err         error // sticky: after a write error every call fails fast

	offsets []int64
	zones   []ZoneMap

	payload []byte // reused encode buffer
}

func newBlockWriter(w io.Writer, kind Kind, opts Options) *blockWriter {
	opts = opts.withDefaults()
	return &blockWriter{w: w, kind: kind, opts: opts}
}

func (bw *blockWriter) write(p []byte) {
	if bw.err != nil {
		return
	}
	n, err := bw.w.Write(p)
	bw.off += int64(n)
	if err != nil {
		bw.err = fmt.Errorf("colstore: write: %w", err)
	}
}

func (bw *blockWriter) writeHeader() {
	if bw.wroteHeader {
		return
	}
	bw.wroteHeader = true
	hdr := [headerSize]byte{}
	copy(hdr[:4], magicHead[:])
	hdr[4] = version
	hdr[5] = byte(bw.kind)
	bw.write(hdr[:])
}

// flushBlock frames and writes one encoded payload and records its zone map.
func (bw *blockWriter) flushBlock(raw []byte, zm ZoneMap) {
	if bw.err != nil {
		return
	}
	bw.writeHeader()
	stored, codec := bw.comp.compress(raw)
	bw.offsets = append(bw.offsets, bw.off)
	bw.zones = append(bw.zones, zm)
	var frame [9]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(stored)))
	frame[4] = codec
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(raw)))
	bw.write(frame[:])
	bw.write(stored)
}

// footerEntrySize is the fixed wire size of one zone-map entry.
const footerEntrySize = 8 + 4 + 2*8 + 4*8 + 2*4 + 8 + 2*4

func (bw *blockWriter) close() error {
	if bw.closed {
		return bw.err
	}
	bw.closed = true
	bw.writeHeader() // empty files still carry header + footer
	footerOff := bw.off
	buf := make([]byte, 0, 4+len(bw.zones)*footerEntrySize+tailSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bw.zones)))
	for i, zm := range bw.zones {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(bw.offsets[i]))
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
	bw.write(buf)
	return bw.err
}

// appendBound32 appends a zone-map bound as an int32, saturated to the int32
// range; it reports whether v saturated (reached either end of the range),
// which the reader takes as an open bound.
func appendBound32(buf []byte, v int) ([]byte, bool) {
	c := min(max(v, math.MinInt32), math.MaxInt32)
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(c))), c == math.MinInt32 || c == math.MaxInt32
}

// Writer streams one row kind into a VTB file: rows buffer up to a block,
// the kind's encoder turns the block into a column payload plus its zone map,
// and Close flushes the last block and writes the footer. Feed it from the
// generation pipeline's emit callback (the Collector delivers samples in
// global time order, which makes the zone maps maximally selective). The
// caller owns the io.Writer; Close flushes the format but does not close it.
//
// A full block is encoded, compressed and written on a background goroutine
// while the next one fills. One block is in flight at a time: handing off
// block k+1 first waits until block k is written, so blocks reach the
// io.Writer in order and the image is byte-identical to a synchronous
// writer's. The goroutine starts with the first full block — an image smaller
// than a block (a served response, say) never starts one — and Close and
// Reset wait for it. A background write error is returned by the next Write
// or Close. A Writer is not safe for concurrent use.
type Writer[T any] struct {
	bw *blockWriter
	// buf is the block being filled; spare is the block in flight, or the
	// free buffer the next hand-off fills next.
	buf, spare []T
	// encode appends the block's column payload to p[:0] and summarizes the
	// rows; it owns whatever column slices it reuses from block to block.
	encode func(rows []T, p []byte) ([]byte, ZoneMap)

	// While busy, the background goroutine owns bw and spare; the fields
	// below are the caller's view, refreshed when the block is joined.
	busy     bool
	inflight sync.WaitGroup
	failed   atomic.Bool // the block in flight hit a write error
	err      error
	flushed  int64
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
	bw := newBlockWriter(w, kind, opts)
	return &Writer[T]{bw: bw, buf: make([]T, 0, bw.opts.BlockSize), encode: encode}
}

// Reset starts a new image on dst, keeping the row buffers, the encoder's
// columns, the payload buffer and the compressor: a caller that writes many
// small images — one per served response — allocates them once, not per image.
// A block still in flight from the previous image is waited for first.
func (w *Writer[T]) Reset(dst io.Writer) {
	w.join()
	bw := w.bw
	bw.w, bw.off, bw.wroteHeader, bw.closed, bw.err = dst, 0, false, false, nil
	bw.offsets, bw.zones = bw.offsets[:0], bw.zones[:0]
	w.buf = w.buf[:0]
	w.failed.Store(false)
	w.err, w.flushed = nil, 0
}

// Write appends one row, handing the block off when full.
func (w *Writer[T]) Write(row T) error {
	if w.failed.Load() {
		w.join()
	}
	if w.err != nil {
		return w.err
	}
	if w.bw.closed {
		return fmt.Errorf("colstore: write after Close")
	}
	w.buf = append(w.buf, row)
	if len(w.buf) >= w.bw.opts.BlockSize {
		w.handOff()
	}
	return w.err
}

// Flushed returns the image bytes, header included, of every block before the
// one handed off last — the whole image after Close. It changes only at a
// hand-off, once the block before is written, so it is a function of the rows
// written so far, never of how far the background goroutine has got.
func (w *Writer[T]) Flushed() int64 { return w.flushed }

// Close waits for the block in flight, writes the pending block and the
// footer index.
func (w *Writer[T]) Close() error {
	w.join()
	if !w.bw.closed && len(w.buf) > 0 && w.err == nil {
		w.flush(w.buf)
		w.buf = w.buf[:0]
	}
	w.err = w.bw.close()
	w.flushed = w.bw.off
	return w.err
}

// handOff starts writing the full block in the background, once the block
// before it is written, and continues filling the buffer that one used.
func (w *Writer[T]) handOff() {
	w.join()
	if w.err != nil {
		return
	}
	if w.spare == nil {
		w.spare = make([]T, 0, cap(w.buf))
	}
	rows := w.buf
	w.buf, w.spare = w.spare[:0], rows
	w.busy = true
	w.inflight.Add(1)
	go func() {
		defer w.inflight.Done()
		w.flush(rows)
		if w.bw.err != nil {
			w.failed.Store(true)
		}
	}()
}

// join waits for the block in flight, if any, and takes over its outcome.
func (w *Writer[T]) join() {
	if !w.busy {
		return
	}
	w.inflight.Wait()
	w.busy = false
	w.err, w.flushed = w.bw.err, w.bw.off
}

func (w *Writer[T]) flush(rows []T) {
	p, zm := w.encode(rows, w.bw.payload)
	w.bw.payload = p
	w.bw.flushBlock(p, zm)
}

// trajectoryEncoder splits trajectory rows into its reused columns. The
// string columns keep their dictionaries from block to block, so a name is
// coded once per file, not once per block.
type trajectoryEncoder struct {
	cols TrajectoryBatch
	dict dictScratch
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

	return appendTrajectoryPayload(p[:0], c, &e.dict), zm
}

// appendTrajectoryPayload appends c's rows to p as one block payload: the
// row count, then each column.
func appendTrajectoryPayload(p []byte, c *TrajectoryBatch, d *dictScratch) []byte {
	p = binary.AppendUvarint(p, uint64(c.Len()))
	p = appendIntColumn(p, c.ObjID)
	p = appendDictColumn(p, &c.Building, d)
	p = appendIntColumn(p, c.Floor)
	p = appendDictColumn(p, &c.Partition, d)
	p = appendFloatColumn(p, c.X)
	p = appendFloatColumn(p, c.Y)
	p = appendFloatColumn(p, c.T)
	return appendBitset(p, c.HasPoint)
}

// rssiEncoder splits RSSI rows into its reused columns; see
// trajectoryEncoder.
type rssiEncoder struct {
	cols RSSIBatch
	dict dictScratch
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
	p = appendFloatColumn(p, c.RSSI)
	p = appendFloatColumn(p, c.T)
	return p, zm
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
