package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// reader owns the kind-independent read machinery: header/footer validation
// and block fetch + decompression. Typed readers layer row decoding and
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

// OpenOptions tunes how a VTB file is opened. The zero value selects the
// defaults: memory-map when the platform supports it, falling back to pread
// silently when it does not (or when mapping fails).
type OpenOptions struct {
	// DisableMmap forces the io.ReaderAt path even where mmap is available
	// — the escape hatch behind the CLIs' -mmap=false flags.
	DisableMmap bool
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
		i32 := func(at int) int {
			return int(int32(binary.LittleEndian.Uint32(e[at:])))
		}
		rd.offsets = append(rd.offsets, off)
		rd.zones = append(rd.zones, ZoneMap{
			Count: int(binary.LittleEndian.Uint32(e[8:])),
			T0:    f64(12), T1: f64(20),
			Box: geom.BBox{
				Min: geom.Pt(f64(28), f64(36)),
				Max: geom.Pt(f64(44), f64(52)),
			},
			FloorMin: i32(60), FloorMax: i32(64),
			FloorMask: binary.LittleEndian.Uint64(e[68:]),
			ObjMin:    i32(76), ObjMax: i32(80),
		})
	}
	return rd, nil
}

// openPath opens the VTB file at path, mmap-backed unless disabled or
// unavailable (then pread-backed). The returned reader owns the file.
func openPath(path string, want Kind, opts OpenOptions) (*reader, error) {
	f, size, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if !opts.DisableMmap {
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
		// Mapping failed (unsupported platform, exotic filesystem, empty
		// file): degrade to pread. Results are byte-identical either way.
	}
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

func (rd *reader) close() error {
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

func (rd *reader) len() int {
	n := 0
	for _, zm := range rd.zones {
		n += zm.Count
	}
	return n
}

// mmapped reports whether block reads come from a memory-mapped region.
func (rd *reader) mmapped() bool { return rd.data != nil }

// TrajectoryReader reads trajectory samples from a VTB file with zone-map
// pruned scans. It is safe for concurrent Scans; Close must not race a scan
// in flight (an mmap-backed reader unmaps its file region on Close).
type TrajectoryReader struct {
	rd *reader
}

// NewTrajectoryReader opens a trajectory VTB image held in r (size bytes).
func NewTrajectoryReader(r io.ReaderAt, size int64) (*TrajectoryReader, error) {
	rd, err := openReader(r, size, KindTrajectory)
	if err != nil {
		return nil, err
	}
	return &TrajectoryReader{rd: rd}, nil
}

// OpenTrajectory opens the trajectory VTB file at path with the default
// options (memory-mapped where available). Close releases the underlying
// file and mapping.
func OpenTrajectory(path string) (*TrajectoryReader, error) {
	return OpenTrajectoryOptions(path, OpenOptions{})
}

// OpenTrajectoryOptions opens the trajectory VTB file at path with explicit
// open options.
func OpenTrajectoryOptions(path string, opts OpenOptions) (*TrajectoryReader, error) {
	rd, err := openPath(path, KindTrajectory, opts)
	if err != nil {
		return nil, err
	}
	return &TrajectoryReader{rd: rd}, nil
}

// Close releases the underlying file (and unmaps the region when
// mmap-backed). Scans after Close fail; samples and batches already decoded
// stay valid — decoding copies every value out of the mapped region.
func (tr *TrajectoryReader) Close() error { return tr.rd.close() }

// Mmapped reports whether the reader decodes blocks from a memory-mapped
// region (false on the io.ReaderAt fallback path).
func (tr *TrajectoryReader) Mmapped() bool { return tr.rd.mmapped() }

// Len returns the total number of samples in the file (from the footer, no
// block reads).
func (tr *TrajectoryReader) Len() int { return tr.rd.len() }

// Blocks returns the per-block zone maps, in file order.
func (tr *TrajectoryReader) Blocks() []ZoneMap {
	out := make([]ZoneMap, len(tr.rd.zones))
	copy(out, tr.rd.zones)
	return out
}

// MatchTrajectory reports whether a trajectory row satisfies the predicate —
// the exact row semantics of a trajectory Scan, exported so other layers
// (CSV fallback, block caches) can filter identically.
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

// Scan streams every sample matching pred to emit, in file order, skipping
// whole blocks whose zone maps rule them out. The returned stats report how
// effective the pruning was. Steady state the scan allocates only
// never-seen-before strings: block fetch, decompression, and column decode
// all run out of pooled scratch buffers.
func (tr *TrajectoryReader) Scan(pred Predicate, emit func(trajectory.Sample)) (ScanStats, error) {
	sc := getScratch()
	defer putScratch(sc)
	stats := ScanStats{BlocksTotal: len(tr.rd.zones)}
	for i, zm := range tr.rd.zones {
		if pred.skipBlock(zm) {
			stats.BlocksPruned++
			continue
		}
		stats.BlocksScanned++
		raw, err := tr.rd.blockBytes(i, sc)
		if err != nil {
			return stats, err
		}
		if err := decodeTrajectoryBatchInto(raw, &sc.batch, sc); err != nil {
			return stats, fmt.Errorf("block %d: %w", i, err)
		}
		for j := 0; j < sc.batch.Len(); j++ {
			stats.RowsScanned++
			s := sc.batch.Row(j)
			if pred.MatchTrajectory(s) {
				stats.RowsMatched++
				emit(s)
			}
		}
	}
	return stats, nil
}

// DecodeBlock decodes block i (0 <= i < len(Blocks())) in full, ignoring any
// predicate, into freshly allocated rows. Safe for concurrent use.
func (tr *TrajectoryReader) DecodeBlock(i int) ([]trajectory.Sample, error) {
	b, err := tr.DecodeBlockBatch(i)
	if err != nil {
		return nil, err
	}
	return b.AppendTo(make([]trajectory.Sample, 0, b.Len())), nil
}

// DecodeBlockBatch decodes block i in full into a freshly allocated column
// batch the caller owns — the cache entry point: a serving layer keeps
// decoded batches resident (their footprint is what Bytes reports), fetches
// them here once, and filters each query's rows itself with
// Predicate.SelectTrajectory.
// Safe for concurrent use.
func (tr *TrajectoryReader) DecodeBlockBatch(i int) (*TrajectoryBatch, error) {
	if i < 0 || i >= len(tr.rd.zones) {
		return nil, fmt.Errorf("colstore: block index %d out of range [0, %d)", i, len(tr.rd.zones))
	}
	sc := getScratch()
	defer putScratch(sc)
	raw, err := tr.rd.blockBytes(i, sc)
	if err != nil {
		return nil, err
	}
	out := &TrajectoryBatch{}
	if err := decodeTrajectoryBatchInto(raw, out, sc); err != nil {
		return nil, fmt.Errorf("block %d: %w", i, err)
	}
	return out, nil
}

// ReadAll decodes the whole file.
func (tr *TrajectoryReader) ReadAll() ([]trajectory.Sample, error) {
	out := make([]trajectory.Sample, 0, tr.Len())
	_, err := tr.Scan(Predicate{}, func(s trajectory.Sample) { out = append(out, s) })
	return out, err
}

// decodeTrajectoryBatchInto decodes one raw block payload into b's reused
// columns, borrowing intermediates from sc.
func decodeTrajectoryBatchInto(raw []byte, b *TrajectoryBatch, sc *decodeScratch) error {
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

// RSSIReader reads RSSI measurements from a VTB file.
type RSSIReader struct {
	rd *reader
}

// NewRSSIReader opens an RSSI VTB image held in r (size bytes).
func NewRSSIReader(r io.ReaderAt, size int64) (*RSSIReader, error) {
	rd, err := openReader(r, size, KindRSSI)
	if err != nil {
		return nil, err
	}
	return &RSSIReader{rd: rd}, nil
}

// OpenRSSI opens the RSSI VTB file at path with the default options
// (memory-mapped where available). Close releases the underlying file and
// mapping.
func OpenRSSI(path string) (*RSSIReader, error) {
	return OpenRSSIOptions(path, OpenOptions{})
}

// OpenRSSIOptions opens the RSSI VTB file at path with explicit open
// options.
func OpenRSSIOptions(path string, opts OpenOptions) (*RSSIReader, error) {
	rd, err := openPath(path, KindRSSI, opts)
	if err != nil {
		return nil, err
	}
	return &RSSIReader{rd: rd}, nil
}

// Close releases the underlying file (and unmaps the region when
// mmap-backed); see TrajectoryReader.Close.
func (rr *RSSIReader) Close() error { return rr.rd.close() }

// Mmapped reports whether the reader decodes blocks from a memory-mapped
// region.
func (rr *RSSIReader) Mmapped() bool { return rr.rd.mmapped() }

// Len returns the total number of measurements in the file.
func (rr *RSSIReader) Len() int { return rr.rd.len() }

// Blocks returns the per-block zone maps, in file order.
func (rr *RSSIReader) Blocks() []ZoneMap {
	out := make([]ZoneMap, len(rr.rd.zones))
	copy(out, rr.rd.zones)
	return out
}

// Scan streams every measurement matching pred (time and object constraints;
// floor/box do not apply to RSSI rows) to emit, skipping blocks via zone
// maps.
func (rr *RSSIReader) Scan(pred Predicate, emit func(rssi.Measurement)) (ScanStats, error) {
	// Floor and box constraints are meaningless for RSSI rows; drop them so
	// they neither prune blocks nor filter rows.
	pred.HasFloor, pred.HasBox = false, false
	sc := getScratch()
	defer putScratch(sc)
	stats := ScanStats{BlocksTotal: len(rr.rd.zones)}
	for i, zm := range rr.rd.zones {
		if pred.skipBlock(zm) {
			stats.BlocksPruned++
			continue
		}
		stats.BlocksScanned++
		raw, err := rr.rd.blockBytes(i, sc)
		if err != nil {
			return stats, err
		}
		if err := decodeRSSIBatchInto(raw, &sc.rbatch, sc); err != nil {
			return stats, fmt.Errorf("block %d: %w", i, err)
		}
		for j := 0; j < sc.rbatch.Len(); j++ {
			stats.RowsScanned++
			m := sc.rbatch.Row(j)
			if pred.MatchRSSI(m) {
				stats.RowsMatched++
				emit(m)
			}
		}
	}
	return stats, nil
}

// DecodeBlock decodes block i in full, ignoring any predicate; see
// TrajectoryReader.DecodeBlock. Safe for concurrent use.
func (rr *RSSIReader) DecodeBlock(i int) ([]rssi.Measurement, error) {
	b, err := rr.DecodeBlockBatch(i)
	if err != nil {
		return nil, err
	}
	return b.AppendTo(make([]rssi.Measurement, 0, b.Len())), nil
}

// DecodeBlockBatch decodes block i in full into a freshly allocated column
// batch the caller owns; see TrajectoryReader.DecodeBlockBatch. Safe for
// concurrent use.
func (rr *RSSIReader) DecodeBlockBatch(i int) (*RSSIBatch, error) {
	if i < 0 || i >= len(rr.rd.zones) {
		return nil, fmt.Errorf("colstore: block index %d out of range [0, %d)", i, len(rr.rd.zones))
	}
	sc := getScratch()
	defer putScratch(sc)
	raw, err := rr.rd.blockBytes(i, sc)
	if err != nil {
		return nil, err
	}
	out := &RSSIBatch{}
	if err := decodeRSSIBatchInto(raw, out, sc); err != nil {
		return nil, fmt.Errorf("block %d: %w", i, err)
	}
	return out, nil
}

// ReadAll decodes the whole file.
func (rr *RSSIReader) ReadAll() ([]rssi.Measurement, error) {
	out := make([]rssi.Measurement, 0, rr.Len())
	_, err := rr.Scan(Predicate{}, func(m rssi.Measurement) { out = append(out, m) })
	return out, err
}

// decodeRSSIBatchInto decodes one raw block payload into b's reused columns.
func decodeRSSIBatchInto(raw []byte, b *RSSIBatch, sc *decodeScratch) error {
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
