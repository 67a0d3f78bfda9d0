// Package colstore implements VTB, Vita's block-based columnar binary format
// for trajectory samples and RSSI measurements. It is the scale-oriented
// alternative to the CSV codecs of internal/storage: lossless (full float64
// fidelity where CSV quantizes to 4 decimals), a fraction of the size, and —
// via per-block zone maps — readable with predicate pushdown, so a
// time-window or single-object query touches only the blocks that can hold
// matching rows.
//
// # File layout (VTB v1)
//
//	header   "VTB1" | version (u8) | kind (u8) | reserved (u16)
//	blocks   each: storedLen (u32) | codec (u8) | rawLen (u32) | payload
//	footer   blockCount (u32) | blockCount × zone-map entry | footerOff (u64) | "VTBF"
//
// Fixed-width integers are little-endian. A zone-map entry records the block
// offset plus per-block summaries: row count, time min/max, point bounding
// box, floor range + presence bitmask, and object-ID range. Readers load only
// the footer up front; a cursor consults the zone maps and skips whole blocks
// whose summaries cannot satisfy the predicate.
//
// # Block payload
//
// Rows are split into columns, each encoded to exploit its shape:
//
//   - integer columns (object ID, floor): zigzag-varint delta-of-delta, so
//     the near-constant deltas of time-ordered generator output collapse to
//     single bytes;
//   - float columns (x, y, t, rssi): per-block either "scaled" — when every
//     value round-trips exactly through a decimal fixed-point representation
//     (timestamps on a regular sampling grid always do), encoded as a scaled
//     integer column — or "raw", 8-byte bit patterns XORed with the previous
//     value so that the block compressor finds the shared exponent/mantissa
//     prefixes;
//   - string columns (building, partition, device ID): per-block dictionary
//     in first-seen order followed by varint indices;
//   - the HasPoint flag: a bitset.
//
// The concatenated columns are then block-compressed with vsnap, the
// allocation-free LZ codec (codec 2, see vsnap.go), when that helps, or
// stored verbatim (codec 0). Files written before vsnap carry flate blocks
// (codec 1): readers still decode them, nothing writes them any more. Every
// block frame carries its own codec byte, so one file may mix blocks from
// different codecs and eras; readers need no codec configuration. Decoding
// restores every field bit-for-bit: the round trip is lossless by
// construction, which the acceptance tests verify sample-by-sample against
// generator output.
//
// # API
//
// The two record kinds share one implementation, generic over the kind's
// column batch (*TrajectoryBatch, *RSSIBatch): Writer encodes rows into
// blocks; Reader slices one byte region holding the whole file (mapped where
// the platform allows) and hands out Cursor — the one scan path, one decoded
// batch per surviving block — and DecodeBlock, the block-cache entry point.
// TrajectoryReader and RSSIReader are aliases of the instantiations. Only what differs stays per
// kind: the batch struct, its column decode, its select kernel, and the
// writer's encode + zone map.
package colstore

import (
	"fmt"
	"io"
	"os"

	"vita/internal/geom"
)

// Kind identifies the record schema stored in a VTB file.
type Kind uint8

const (
	// KindTrajectory stores trajectory.Sample rows (also fits positioning
	// estimates, which share the schema).
	KindTrajectory Kind = 0
	// KindRSSI stores rssi.Measurement rows.
	KindRSSI Kind = 1
)

func (k Kind) String() string {
	switch k {
	case KindTrajectory:
		return "trajectory"
	case KindRSSI:
		return "rssi"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

const (
	version    = 1
	headerSize = 8
	tailSize   = 12 // footerOff (u64) + tail magic (4)

	codecRaw   = 0
	codecFlate = 1
	codecVSnap = 2

	// maxBlockRaw bounds the decoded size a block frame may declare. Real
	// blocks are a few hundred KiB (BlockSize rows across ~8 columns), so
	// 16 MiB is two orders of magnitude of headroom; the bound exists so a
	// corrupt or hostile frame cannot drive a giant allocation — or a
	// gigabyte-scale LZ expansion — before decoding even starts.
	maxBlockRaw = 1 << 24
)

var (
	magicHead = [4]byte{'V', 'T', 'B', '1'}
	magicTail = [4]byte{'V', 'T', 'B', 'F'}
)

// Options tunes a Writer. The zero value selects the defaults.
type Options struct {
	// BlockSize is the number of rows per block (default 4096). Smaller
	// blocks prune more sharply but carry more per-block overhead.
	BlockSize int
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	return o
}

// ZoneMap summarizes one block for predicate pushdown. Every field is a
// conservative bound: a predicate may only skip a block when the zone map
// proves no row can match.
type ZoneMap struct {
	// Count is the number of rows in the block.
	Count int
	// T0 and T1 bound the row timestamps.
	T0, T1 float64
	// Box bounds the sample points (trajectory kind; empty when the block
	// has no coordinate rows, including always for RSSI files).
	Box geom.BBox
	// FloorMin and FloorMax bound the floors (trajectory kind).
	FloorMin, FloorMax int
	// FloorMask has bit i set when floor FloorMin+i occurs in the block; 0
	// means the mask is unusable (floor span ≥ 64) and only the range
	// bounds apply.
	FloorMask uint64
	// ObjMin and ObjMax bound the object IDs.
	ObjMin, ObjMax int
}

// ScanStats reports how much of a file a scan actually touched.
type ScanStats struct {
	// BlocksTotal is the number of blocks in the file.
	BlocksTotal int
	// BlocksScanned is how many blocks were read and decoded.
	BlocksScanned int
	// BlocksPruned is how many blocks the zone maps skipped outright.
	BlocksPruned int
	// RowsScanned counts rows decoded from scanned blocks.
	RowsScanned int
	// RowsMatched counts rows that passed the predicate and were emitted.
	RowsMatched int
}

// Add returns the field-wise sum of two scans' statistics — how a merge of
// several files, or a join of two plans, reports what it touched.
func (s ScanStats) Add(o ScanStats) ScanStats {
	s.BlocksTotal += o.BlocksTotal
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.RowsScanned += o.RowsScanned
	s.RowsMatched += o.RowsMatched
	return s
}

// Predicate restricts a scan. The zero value matches every row; each set
// constraint must hold for a row to be yielded. Block-level pruning via zone
// maps is exact with respect to these row semantics.
type Predicate struct {
	// HasTime restricts to T0 <= t <= T1.
	HasTime bool
	T0, T1  float64
	// HasFloor restricts to rows on exactly Floor (trajectory kind).
	HasFloor bool
	Floor    int
	// HasBox restricts to coordinate rows whose point lies in Box
	// (trajectory kind; symbolic rows never match).
	HasBox bool
	Box    geom.BBox
	// HasObj restricts to a single object ID.
	HasObj bool
	Obj    int
}

// SkipBlock reports whether the zone map proves no row of the block can
// match p. Callers that fetch blocks themselves (for example through a block
// cache, like internal/serve) use it to reproduce a cursor's pruning exactly.
func (p Predicate) SkipBlock(zm ZoneMap) bool {
	if zm.Count == 0 {
		return true
	}
	if p.HasTime && (p.T1 < zm.T0 || p.T0 > zm.T1) {
		return true
	}
	if p.HasObj && (p.Obj < zm.ObjMin || p.Obj > zm.ObjMax) {
		return true
	}
	if p.HasFloor {
		if p.Floor < zm.FloorMin || p.Floor > zm.FloorMax {
			return true
		}
		if zm.FloorMask != 0 && zm.FloorMask&(1<<uint(p.Floor-zm.FloorMin)) == 0 {
			return true
		}
	}
	// Box containment tolerates geom.Eps, so grow the query box by Eps
	// before the intersection test to keep pruning conservative.
	if p.HasBox && (zm.Box.IsEmpty() || !zm.Box.Intersects(p.Box.Expand(geom.Eps))) {
		return true
	}
	return false
}

// CoversBlock is SkipBlock's dual: it reports whether the zone map proves
// every row of the block matches p, so a caller may pass the decoded block on
// without filtering it. A box constraint never proves out — zone maps do not
// record whether every row carries a point.
func (p Predicate) CoversBlock(zm ZoneMap) bool {
	if p.HasBox {
		return false
	}
	if p.HasTime && !(zm.T0 >= p.T0 && zm.T1 <= p.T1) {
		return false
	}
	if p.HasObj && (zm.ObjMin != p.Obj || zm.ObjMax != p.Obj) {
		return false
	}
	if p.HasFloor && (zm.FloorMin != p.Floor || zm.FloorMax != p.Floor) {
		return false
	}
	return true
}

// matchCommon checks the kind-independent constraints (time, object).
func (p Predicate) matchCommon(objID int, t float64) bool {
	if p.HasTime && (t < p.T0 || t > p.T1) {
		return false
	}
	if p.HasObj && objID != p.Obj {
		return false
	}
	return true
}

// Sniff reports whether the file at path is a VTB file (by magic bytes, not
// extension) and, if so, its record kind.
func Sniff(path string) (kind Kind, isVTB bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, false, nil // too short to be VTB; treat as not-VTB
		}
		return 0, false, err
	}
	if [4]byte(hdr[:4]) != magicHead {
		return 0, false, nil
	}
	return Kind(hdr[5]), true, nil
}
