package colstore

import (
	"bytes"
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
// A reader is backed either by a memory-mapped file (data non-nil; block
// fetch slices the page-cache-backed region with no syscalls or copies) or
// by a plain io.ReaderAt (block fetch preads into the caller's scratch).
type reader struct {
	r       io.ReaderAt
	size    int64
	kind    Kind
	zones   []ZoneMap
	offsets []int64
	closer  io.Closer // set when the reader owns the underlying file

	data   []byte // whole-file image when mmap-backed, else nil
	unmap  func() error
	closed atomic.Bool
}

// OpenOptions tunes how a VTB file is opened. A file is always memory-mapped
// where the platform allows, falling back to pread silently when it does not
// (or when mapping fails); the zero value selects the defaults.
type OpenOptions struct {
	// Sequential declares the access pattern up front: the whole file will
	// be read once, front to back (a compaction merge, a cold full scan).
	// On mmap-backed readers it issues madvise(MADV_SEQUENTIAL) so the
	// kernel reads ahead aggressively and drops pages behind the scan
	// instead of letting a one-shot pass evict the hot working set. A hint
	// only: results are identical with or without it.
	Sequential bool
}

func openReader(r io.ReaderAt, size int64, want Kind) (*reader, error) {
	if size < headerSize+tailSize {
		return nil, fmt.Errorf("colstore: file too short (%d bytes) to be VTB", size)
	}
	var hdr [headerSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("colstore: read header: %w", err)
	}
	if [4]byte(hdr[:4]) != magicHead {
		return nil, fmt.Errorf("colstore: bad magic %q (not a VTB file)", hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("colstore: unsupported VTB version %d", hdr[4])
	}
	if got := Kind(hdr[5]); got != want {
		return nil, fmt.Errorf("colstore: file holds %s records, want %s", got, want)
	}

	var tail [tailSize]byte
	if _, err := r.ReadAt(tail[:], size-tailSize); err != nil {
		return nil, fmt.Errorf("colstore: read footer tail: %w", err)
	}
	if [4]byte(tail[8:]) != magicTail {
		return nil, fmt.Errorf("colstore: bad footer magic %q (truncated file?)", tail[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerOff < headerSize || footerOff > size-tailSize-4 {
		return nil, fmt.Errorf("colstore: footer offset %d out of range", footerOff)
	}
	footer := make([]byte, size-tailSize-footerOff)
	if _, err := r.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("colstore: read footer: %w", err)
	}
	blockCount := int(binary.LittleEndian.Uint32(footer[:4]))
	if len(footer) != 4+blockCount*footerEntrySize {
		return nil, fmt.Errorf("colstore: footer is %d bytes, want %d for %d blocks",
			len(footer), 4+blockCount*footerEntrySize, blockCount)
	}

	rd := &reader{r: r, size: size, kind: want,
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

// openPath opens the VTB file at path, mmap-backed where the platform and
// the file allow it, else pread-backed. The returned reader owns the file.
func openPath(path string, want Kind, opts OpenOptions) (*reader, error) {
	f, size, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if data, unmap, err := mmapFile(f, size); err == nil {
		if opts.Sequential {
			// Best effort; a failed hint changes nothing observable.
			_ = madviseSequential(data)
		}
		rd, err := openReader(bytes.NewReader(data), size, want)
		if err != nil {
			unmap()
			f.Close()
			return nil, err
		}
		rd.data = data
		rd.unmap = unmap
		rd.closer = f
		return rd, nil
	}
	// Mapping failed (unsupported platform, exotic filesystem, empty file):
	// degrade to pread. Results are byte-identical either way.
	rd, err := openReader(f, size, want)
	if err != nil {
		f.Close()
		return nil, err
	}
	rd.closer = f
	return rd, nil
}

// blockBytes fetches and decompresses block i into (at most) the scratch's
// buffers. On the mmap path an uncompressed block comes back as a window
// into the mapped region — zero copies end to end; flate blocks inflate
// through the scratch's pooled decompressor. The result is only valid until
// the scratch's next use.
func (rd *reader) blockBytes(i int, sc *decodeScratch) ([]byte, error) {
	if rd.closed.Load() {
		return nil, fmt.Errorf("colstore: read from closed reader")
	}
	off := rd.offsets[i]
	var frame []byte
	if rd.data != nil {
		frame = rd.data[off : off+9]
	} else {
		var fbuf [9]byte
		if _, err := rd.r.ReadAt(fbuf[:], off); err != nil {
			return nil, fmt.Errorf("colstore: read block %d frame: %w", i, err)
		}
		frame = fbuf[:]
	}
	storedLen := int(binary.LittleEndian.Uint32(frame[0:]))
	codec := frame[4]
	rawLen := int(binary.LittleEndian.Uint32(frame[5:]))
	if int64(storedLen) > rd.size-off-9 {
		return nil, fmt.Errorf("colstore: block %d claims %d bytes past EOF", i, storedLen)
	}
	if rawLen > maxBlockRaw {
		// A corrupt frame must not drive a giant decode allocation; no real
		// block approaches this (see maxBlockRaw).
		return nil, fmt.Errorf("colstore: block %d declares %d raw bytes (limit %d)", i, rawLen, maxBlockRaw)
	}
	var stored []byte
	if rd.data != nil {
		stored = rd.data[off+9 : off+9+int64(storedLen)]
	} else {
		sc.stored = growBytes(sc.stored, storedLen)
		if _, err := rd.r.ReadAt(sc.stored, off+9); err != nil {
			return nil, fmt.Errorf("colstore: read block %d: %w", i, err)
		}
		stored = sc.stored
	}
	raw, err := decompressInto(stored, codec, rawLen, sc)
	if err != nil {
		return nil, fmt.Errorf("colstore: block %d: %w", i, err)
	}
	return raw, nil
}

// Close releases the underlying file (and unmaps the region when
// mmap-backed). Scans after Close fail; batches already decoded stay valid —
// decoding copies every value out of the mapped region.
func (rd *reader) Close() error {
	if rd.closed.Swap(true) {
		return nil
	}
	var err error
	if rd.unmap != nil {
		err = rd.unmap()
		rd.data = nil
	}
	if rd.closer != nil {
		if cerr := rd.closer.Close(); err == nil {
			err = cerr
		}
	}
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

// Mmapped reports whether the reader decodes blocks from a memory-mapped
// region (false on the io.ReaderAt fallback path).
func (rd *reader) Mmapped() bool { return rd.data != nil }

// Blocks returns the per-block zone maps, in file order.
func (rd *reader) Blocks() []ZoneMap { return slices.Clone(rd.zones) }

// Reader reads one row kind's blocks from a VTB file. It is written once,
// generic over the kind's column batch (B is *TrajectoryBatch or *RSSIBatch);
// what differs between kinds — the column decode and the select kernel — is
// the kindOps it was constructed with. A Reader is safe for any number of
// concurrent cursors and DecodeBlock calls; Close must not race a scan in
// flight (an mmap-backed reader unmaps its file region on Close).
type Reader[B Batch] struct {
	*reader
	ops *kindOps[B]
}

// TrajectoryReader and RSSIReader are the two instantiations of Reader.
type (
	TrajectoryReader = Reader[*TrajectoryBatch]
	RSSIReader       = Reader[*RSSIBatch]
)

// NewTrajectoryReader opens a trajectory VTB image held in r (size bytes) on
// the pread path — how an in-memory image is read. The reader does not own
// r: Close leaves it open.
func NewTrajectoryReader(r io.ReaderAt, size int64) (*TrajectoryReader, error) {
	return trajectoryOps.reader(openReader(r, size, KindTrajectory))
}

// OpenTrajectory opens the trajectory VTB file at path; the zero OpenOptions
// memory-map it where the platform allows. Close releases the file and the
// mapping.
func OpenTrajectory(path string, opts OpenOptions) (*TrajectoryReader, error) {
	return trajectoryOps.reader(openPath(path, KindTrajectory, opts))
}

// OpenRSSI opens the RSSI VTB file at path; see OpenTrajectory.
func OpenRSSI(path string, opts OpenOptions) (*RSSIReader, error) {
	return rssiOps.reader(openPath(path, KindRSSI, opts))
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
	if err := r.ops.decode(raw, out, &sc.decodeScratch); err != nil {
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

// decodeTrajectoryBatch decodes one raw block payload into b's reused
// columns, borrowing intermediates from sc.
func decodeTrajectoryBatch(raw []byte, b *TrajectoryBatch, sc *decodeScratch) error {
	c := &cursor{b: raw}
	n := c.count()
	b.Reset()
	b.ObjID = c.intColumnInto(n, b.ObjID)
	b.Building = c.dictColumnInto(n, b.Building, sc)
	b.Floor = c.intColumnInto(n, b.Floor)
	b.Partition = c.dictColumnInto(n, b.Partition, sc)
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

// decodeRSSIBatch decodes one raw block payload into b's reused columns.
func decodeRSSIBatch(raw []byte, b *RSSIBatch, sc *decodeScratch) error {
	c := &cursor{b: raw}
	n := c.count()
	b.Reset()
	b.ObjID = c.intColumnInto(n, b.ObjID)
	b.DeviceID = c.dictColumnInto(n, b.DeviceID, sc)
	b.RSSI = c.floatColumnInto(n, b.RSSI, sc)
	b.T = c.floatColumnInto(n, b.T, sc)
	if c.err != nil {
		b.Reset()
		return c.err
	}
	return nil
}

func openFile(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}
