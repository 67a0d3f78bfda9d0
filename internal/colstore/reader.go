package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// reader owns the kind-independent read machinery: header/footer validation
// and block fetch + decompression. Reader layers a kind's column decode and
// predicate evaluation on top.
//
// A reader slices one byte region holding the whole file: a memory-mapped
// file, the file read into memory where mapping is unavailable, or an
// in-memory image. Header, footer and block frames are all windows into it.
type reader struct {
	data    []byte
	release func() error // unmaps a mapped file; nil otherwise
	kind    Kind
	zones   []ZoneMap
	offsets []int64
	closed  atomic.Bool
}

func openReader(data []byte, want Kind) (*reader, error) {
	size := int64(len(data))
	if size < headerSize+tailSize {
		return nil, fmt.Errorf("colstore: file too short (%d bytes) to be VTB", size)
	}
	hdr := data[:headerSize]
	if [4]byte(hdr[:4]) != magicHead {
		return nil, fmt.Errorf("colstore: bad magic %q (not a VTB file)", hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("colstore: unsupported VTB version %d", hdr[4])
	}
	if got := Kind(hdr[5]); got != want {
		return nil, fmt.Errorf("colstore: file holds %s records, want %s", got, want)
	}

	tail := data[size-tailSize:]
	if [4]byte(tail[8:]) != magicTail {
		return nil, fmt.Errorf("colstore: bad footer magic %q (truncated file?)", tail[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerOff < headerSize || footerOff > size-tailSize-4 {
		return nil, fmt.Errorf("colstore: footer offset %d out of range", footerOff)
	}
	footer := data[footerOff : size-tailSize]
	blockCount := int(binary.LittleEndian.Uint32(footer[:4]))
	if len(footer) != 4+blockCount*footerEntrySize {
		return nil, fmt.Errorf("colstore: footer is %d bytes, want %d for %d blocks",
			len(footer), 4+blockCount*footerEntrySize, blockCount)
	}

	rd := &reader{data: data, kind: want,
		zones: make([]ZoneMap, 0, blockCount), offsets: make([]int64, 0, blockCount)}
	for i := 0; i < blockCount; i++ {
		e := footer[4+i*footerEntrySize:]
		off := int64(binary.LittleEndian.Uint64(e[0:]))
		if off < headerSize || off >= footerOff {
			return nil, fmt.Errorf("colstore: block %d offset %d out of range", i, off)
		}
		f64 := func(at int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(e[at:]))
		}
		rd.offsets = append(rd.offsets, off)
		rd.zones = append(rd.zones, ZoneMap{
			Count: int(binary.LittleEndian.Uint32(e[8:])),
			T0:    f64(12), T1: f64(20),
			Box: geom.BBox{
				Min: geom.Pt(f64(28), f64(36)),
				Max: geom.Pt(f64(44), f64(52)),
			},
			FloorMin: bound32(e[60:], math.MinInt), FloorMax: bound32(e[64:], math.MaxInt),
			FloorMask: binary.LittleEndian.Uint64(e[68:]),
			ObjMin:    bound32(e[76:], math.MinInt), ObjMax: bound32(e[80:], math.MaxInt),
		})
	}
	return rd, nil
}

// bound32 reads a zone-map bound written by appendBound32. A saturated
// bound reads back as open — the given extreme — so pruning stays
// conservative for values beyond int32.
func bound32(b []byte, open int) int {
	if v := int32(binary.LittleEndian.Uint32(b)); v != math.MinInt32 && v != math.MaxInt32 {
		return int(v)
	}
	return open
}

// openPath opens the VTB file at path. The file is memory-mapped where the
// platform and the file allow it; otherwise (no mmap on this build, an
// exotic filesystem, an empty file) it is read into memory whole. Either way
// the reader slices the same bytes.
func openPath(path string, want Kind) (*reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// A mapping stays valid after its descriptor closes.
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if int64(size) != st.Size() {
		return nil, fmt.Errorf("colstore: %s is too large (%d bytes) for this platform", path, st.Size())
	}
	data, unmap, err := mmapFile(f, size)
	if err != nil {
		data = make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, fmt.Errorf("colstore: read %s: %w", path, err)
		}
	}
	rd, err := openReader(data, want)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	rd.release = unmap
	return rd, nil
}

// blockBytes slices block i out of the region and decompresses it into (at
// most) the scratch's buffers. An uncompressed block comes back as a window
// into the region itself — zero copies end to end. The result is only valid
// until the scratch's next use.
func (rd *reader) blockBytes(i int, sc *decodeScratch) ([]byte, error) {
	if rd.closed.Load() {
		return nil, fmt.Errorf("colstore: read from closed reader")
	}
	off := rd.offsets[i]
	frame := rd.data[off : off+9]
	storedLen := int(binary.LittleEndian.Uint32(frame[0:]))
	codec := frame[4]
	rawLen := int(binary.LittleEndian.Uint32(frame[5:]))
	if int64(storedLen) > int64(len(rd.data))-off-9 {
		return nil, fmt.Errorf("colstore: block %d claims %d bytes past EOF", i, storedLen)
	}
	if rawLen > maxBlockRaw {
		// A corrupt frame must not drive a giant decode allocation; no real
		// block approaches this (see maxBlockRaw).
		return nil, fmt.Errorf("colstore: block %d declares %d raw bytes (limit %d)", i, rawLen, maxBlockRaw)
	}
	stored := rd.data[off+9 : off+9+int64(storedLen)]
	raw, err := decompressInto(stored, codec, rawLen, sc)
	if err != nil {
		return nil, fmt.Errorf("colstore: block %d: %w", i, err)
	}
	return raw, nil
}

// Close releases the region (unmapping a mapped file). Scans after Close
// fail; batches already decoded stay valid — decoding copies every value out
// of the region.
func (rd *reader) Close() error {
	if rd.closed.Swap(true) {
		return nil
	}
	var err error
	if rd.release != nil {
		err = rd.release()
	}
	rd.data = nil
	return err
}

// Len returns the total number of rows in the file (from the footer, no
// block reads).
func (rd *reader) Len() int {
	n := 0
	for _, zm := range rd.zones {
		n += zm.Count
	}
	return n
}

// Blocks returns the per-block zone maps, in file order.
func (rd *reader) Blocks() []ZoneMap { return slices.Clone(rd.zones) }

// Reader reads one row kind's blocks from a VTB file. It is written once,
// generic over the kind's column batch (B is *TrajectoryBatch or *RSSIBatch);
// what differs between kinds — the column decode and the select kernel — is
// the kindOps it was constructed with. A Reader is safe for any number of
// concurrent cursors and DecodeBlock calls; Close must not race a scan in
// flight (a reader of a mapped file unmaps it on Close).
type Reader[B Batch] struct {
	*reader
	ops *kindOps[B]
}

// TrajectoryReader and RSSIReader are the two instantiations of Reader.
type (
	TrajectoryReader = Reader[*TrajectoryBatch]
	RSSIReader       = Reader[*RSSIBatch]
)

// NewTrajectoryReader reads a trajectory VTB image held in memory in place.
// The caller must not modify img while the reader is in use; Close leaves it
// alone.
func NewTrajectoryReader(img []byte) (*TrajectoryReader, error) {
	return trajectoryOps.reader(openReader(img, KindTrajectory))
}

// OpenTrajectory opens the trajectory VTB file at path, memory-mapped where
// the platform allows. Close releases the mapping.
func OpenTrajectory(path string) (*TrajectoryReader, error) {
	return trajectoryOps.reader(openPath(path, KindTrajectory))
}

// OpenRSSI opens the RSSI VTB file at path; see OpenTrajectory.
func OpenRSSI(path string) (*RSSIReader, error) {
	return rssiOps.reader(openPath(path, KindRSSI))
}

func (k *kindOps[B]) reader(rd *reader, err error) (*Reader[B], error) {
	if err != nil {
		return nil, err
	}
	return &Reader[B]{reader: rd, ops: k}, nil
}

// DecodeBlock decodes block i (0 <= i < len(Blocks())) in full, ignoring any
// predicate, into a freshly allocated column batch the caller owns — the
// cache entry point: a serving layer keeps decoded batches resident (their
// footprint is what Bytes reports), fetches them here once, and filters each
// query's rows itself with Predicate.SelectTrajectory. Safe for concurrent
// use.
func (r *Reader[B]) DecodeBlock(i int) (B, error) {
	var none B
	if i < 0 || i >= len(r.zones) {
		return none, fmt.Errorf("colstore: block index %d out of range [0, %d)", i, len(r.zones))
	}
	sc := r.ops.getScratch()
	defer r.ops.pool.Put(sc)
	raw, err := r.blockBytes(i, &sc.decodeScratch)
	if err != nil {
		return none, err
	}
	out := r.ops.newBatch()
	if err := r.ops.decode(raw, r.zones[i].Count, out, &sc.decodeScratch); err != nil {
		return none, fmt.Errorf("block %d: %w", i, err)
	}
	return out, nil
}

// MatchTrajectory reports whether a trajectory row satisfies the predicate —
// the row semantics of SelectTrajectory, exported so row-at-a-time layers
// (the CSV reader, in-memory slices) filter identically.
func (p Predicate) MatchTrajectory(s trajectory.Sample) bool {
	return p.matchCommon(s.ObjID, s.T) &&
		(!p.HasFloor || s.Loc.Floor == p.Floor) &&
		(!p.HasBox || (s.Loc.HasPoint && p.Box.Contains(s.Loc.Point)))
}

// MatchRSSI reports whether an RSSI row satisfies the predicate. Floor and
// box constraints do not apply to RSSI rows and are ignored.
func (p Predicate) MatchRSSI(m rssi.Measurement) bool {
	return p.matchCommon(m.ObjID, m.T)
}

// blockRows reads a block payload's row count and checks it against the
// count the block's zone map declares, before any column is sized from it: a
// block must decode exactly the rows the footer says it holds, or Len (and
// everything counted from the footer) would disagree with a scan. On a
// mismatch it returns 0, so no column reserves anything.
func (c *cursor) blockRows(want int) int {
	n := c.count()
	if c.err == nil && n != want {
		c.fail("block holds %d rows, its footer says %d", n, want)
		return 0
	}
	return n
}

// decodeTrajectoryBatch decodes one raw block payload of want rows into b's
// reused columns, borrowing intermediates from sc.
func decodeTrajectoryBatch(raw []byte, want int, b *TrajectoryBatch, sc *decodeScratch) error {
	c := &cursor{b: raw}
	n := c.blockRows(want)
	b.Reset()
	b.ObjID = c.intColumnInto(n, b.ObjID)
	c.dictColumnInto(n, &b.Building, sc)
	b.Floor = c.intColumnInto(n, b.Floor)
	c.dictColumnInto(n, &b.Partition, sc)
	b.X = c.floatColumnInto(n, b.X, sc)
	b.Y = c.floatColumnInto(n, b.Y, sc)
	b.T = c.floatColumnInto(n, b.T, sc)
	b.HasPoint = c.bitsetInto(n, b.HasPoint)
	if c.err != nil {
		b.Reset()
		return c.err
	}
	return nil
}

// decodeRSSIBatch decodes one raw block payload of want rows into b's reused
// columns.
func decodeRSSIBatch(raw []byte, want int, b *RSSIBatch, sc *decodeScratch) error {
	c := &cursor{b: raw}
	n := c.blockRows(want)
	b.Reset()
	b.ObjID = c.intColumnInto(n, b.ObjID)
	c.dictColumnInto(n, &b.DeviceID, sc)
	b.RSSI = c.floatColumnInto(n, b.RSSI, sc)
	b.T = c.floatColumnInto(n, b.T, sc)
	if c.err != nil {
		b.Reset()
		return c.err
	}
	return nil
}
