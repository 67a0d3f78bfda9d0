package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// blockWriter owns the kind-independent file machinery: header, block
// framing, zone-map accumulation, and the footer. Writer feeds it encoded
// payloads plus their zone maps. Codec selection happens once, at
// construction: the writer holds one configured blockCompressor for its
// lifetime, so the per-block path has no codec branch and every compression
// buffer is reused.
type blockWriter struct {
	w    io.Writer
	opts Options
	kind Kind
	comp blockCompressor

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
	return &blockWriter{w: w, kind: kind, opts: opts, comp: newBlockCompressor(opts.Codec)}
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
	stored, codec, err := bw.comp.compress(raw)
	if err != nil {
		bw.err = err
		return
	}
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
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(zm.FloorMin)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(zm.FloorMax)))
		buf = binary.LittleEndian.AppendUint64(buf, zm.FloorMask)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(zm.ObjMin)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(zm.ObjMax)))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(footerOff))
	buf = append(buf, magicTail[:]...)
	bw.write(buf)
	return bw.err
}

// Writer streams one row kind into a VTB file: rows buffer up to a block,
// the kind's encoder turns the block into a column payload plus its zone map,
// and Close flushes the last block and writes the footer. Feed it from the
// generation pipeline's emit callback (the Collector delivers samples in
// global time order, which makes the zone maps maximally selective). The
// caller owns the io.Writer; Close flushes the format but does not close it.
type Writer[T any] struct {
	bw  *blockWriter
	buf []T
	// encode appends the block's column payload to p[:0] and summarizes the
	// rows; it owns whatever column slices it reuses from block to block.
	encode func(rows []T, p []byte) ([]byte, ZoneMap)
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

// Reset starts a new image on dst, keeping the row buffer, the encoder's
// columns, the payload buffer and the compressor: a caller that writes many
// small images — one per served response — allocates them once, not per image.
func (w *Writer[T]) Reset(dst io.Writer) {
	bw := w.bw
	bw.w, bw.off, bw.wroteHeader, bw.closed, bw.err = dst, 0, false, false, nil
	bw.offsets, bw.zones = bw.offsets[:0], bw.zones[:0]
	w.buf = w.buf[:0]
}

// Write appends one row, flushing a block when full.
func (w *Writer[T]) Write(row T) error {
	if w.bw.closed {
		return fmt.Errorf("colstore: write after Close")
	}
	w.buf = append(w.buf, row)
	if len(w.buf) >= w.bw.opts.BlockSize {
		w.flush()
	}
	return w.bw.err
}

// Close flushes the pending block and writes the footer index.
func (w *Writer[T]) Close() error {
	if !w.bw.closed && len(w.buf) > 0 {
		w.flush()
	}
	return w.bw.close()
}

func (w *Writer[T]) flush() {
	p, zm := w.encode(w.buf, w.bw.payload)
	w.bw.payload = p
	w.bw.flushBlock(p, zm)
	w.buf = w.buf[:0]
}

// trajectoryEncoder splits trajectory rows into its reused columns.
type trajectoryEncoder struct{ cols TrajectoryBatch }

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

	p = binary.AppendUvarint(p[:0], uint64(len(samples)))
	p = appendIntColumn(p, c.ObjID)
	p = appendDictColumn(p, c.Building)
	p = appendIntColumn(p, c.Floor)
	p = appendDictColumn(p, c.Partition)
	p = appendFloatColumn(p, c.X)
	p = appendFloatColumn(p, c.Y)
	p = appendFloatColumn(p, c.T)
	p = appendBitset(p, c.HasPoint)
	return p, zm
}

// rssiEncoder splits RSSI rows into its reused columns.
type rssiEncoder struct{ cols RSSIBatch }

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
	p = appendDictColumn(p, c.DeviceID)
	p = appendFloatColumn(p, c.RSSI)
	p = appendFloatColumn(p, c.T)
	return p, zm
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
