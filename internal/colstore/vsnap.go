package colstore

import (
	"encoding/binary"
	"fmt"
)

// vsnap is VTB's allocation-free LZ block codec: a snappy/LZ4-style
// byte-oriented compressor with a greedy hash-table matcher and no entropy
// stage. It exists because stdlib flate — the only compressed codec before it
// — allocates its Huffman state per stream (~7 allocs per block, the measured
// remaining cost of compressed scans after the PR 5 pooling work), while an
// LZ-only format needs nothing beyond the caller's reused buffers: encode
// compresses into a scratch slice owned by the writer's blockCompressor, and
// decode inflates into the decode scratch's pooled output with zero
// allocations per block. The price is a weaker ratio than flate (no Huffman
// pass); the win is decode at memcpy-like speed. flate blocks are still
// decoded, so files from before vsnap keep opening, but no writer produces
// them any more.
//
// # Stream format
//
// A vsnap stream is a sequence of ops, each starting with a uvarint tag whose
// low bit selects the kind:
//
//	literal  tag = length<<1      followed by `length` raw bytes (length ≥ 1)
//	copy     tag = (length-4)<<1 | 1, then uvarint distance
//
// A copy repeats `length` (≥ 4, the minimum match) bytes starting `distance`
// (≥ 1) bytes back in the decoded output; distance < length is legal and
// repeats the run byte-by-byte, LZ77-style. The decoded size is not part of
// the stream — VTB's block frame already declares rawLen, and the decoder
// enforces it exactly: a stream that would write past rawLen, read a
// distance before the start of output, or end mid-op is rejected as corrupt.
// Every bound is checked before any copy, so hostile input errors out
// without panics or over-reads (fuzz-covered by FuzzVSnapDecode).
//
// # Matcher
//
// The encoder is a single-pass greedy matcher over a 2^14-entry hash table
// of 4-byte sequences, with snappy's skip acceleration: the longer the scan
// goes without a match, the larger the stride, so incompressible input
// degrades toward a straight copy instead of hashing every byte. The table
// lives in the compressor (reused across blocks, cleared with a memclr-
// friendly loop), so steady-state encode allocates only when the output
// buffer must grow.

const (
	// vsnapMinMatch is the shortest copy the format can express; shorter
	// repeats are cheaper as literals anyway (tag + distance ≈ 3 bytes).
	vsnapMinMatch = 4
	// vsnapTableBits sizes the matcher's hash table (2^14 entries = 64 KiB
	// of int32, reused across blocks).
	vsnapTableBits = 14
	vsnapTableSize = 1 << vsnapTableBits
)

// vsnapHash maps a 4-byte sequence to a table slot (Knuth multiplicative
// hash; the high bits are the well-mixed ones).
func vsnapHash(u uint32) uint32 { return (u * 2654435761) >> (32 - vsnapTableBits) }

// vsnapAppend appends the vsnap encoding of src to dst and returns it. table
// must hold vsnapTableSize entries; it is cleared here and holds positions+1
// (0 = empty) so the reset is a memclr. The encoding never reads outside src
// and is deterministic for a given src.
func vsnapAppend(dst, src []byte, table []int32) []byte {
	for i := range table {
		table[i] = 0
	}
	// Matches cannot start within the last vsnapMinMatch-1 bytes (a 4-byte
	// load must stay in bounds), so the main loop stops early and the tail is
	// flushed as one literal.
	sLimit := len(src) - vsnapMinMatch
	nextEmit := 0 // start of the pending literal run
	s := 0
	for s <= sLimit {
		// Probe for a match, striding further apart the longer nothing
		// matches (snappy's heuristic: stride = 1 + probes/32, so random
		// data costs ~1 probe per 32 bytes instead of one per byte).
		skip := 32
		cand := 0
		for {
			if s > sLimit {
				goto emitRemainder
			}
			h := vsnapHash(binary.LittleEndian.Uint32(src[s:]))
			cand = int(table[h]) - 1
			table[h] = int32(s + 1)
			if cand >= 0 &&
				binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[s:]) {
				break
			}
			s += skip >> 5
			skip++
		}
		// Flush the literal run behind the match, then extend the match as
		// far as the bytes agree.
		dst = vsnapEmitLiteral(dst, src[nextEmit:s])
		base := s
		s += vsnapMinMatch
		for m := cand + vsnapMinMatch; s < len(src) && src[s] == src[m]; {
			s++
			m++
		}
		dst = vsnapEmitCopy(dst, s-base, base-cand)
		nextEmit = s
		// Seed the table with the position just before the resume point so
		// back-to-back matches across the copy boundary are still found.
		if s > 0 && s <= sLimit {
			h := vsnapHash(binary.LittleEndian.Uint32(src[s-1:]))
			table[h] = int32(s)
		}
	}
emitRemainder:
	return vsnapEmitLiteral(dst, src[nextEmit:])
}

// vsnapEmitLiteral appends a literal op for lit (no-op when empty).
func vsnapEmitLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(lit))<<1)
	return append(dst, lit...)
}

// vsnapEmitCopy appends a copy op (length ≥ vsnapMinMatch, dist ≥ 1).
func vsnapEmitCopy(dst []byte, length, dist int) []byte {
	dst = binary.AppendUvarint(dst, uint64(length-vsnapMinMatch)<<1|1)
	return binary.AppendUvarint(dst, uint64(dist))
}

// vsnapDecode decompresses src into dst, which must be sized to the block
// frame's declared rawLen. The stream must fill dst exactly. Every length,
// distance, and source bound is validated before any byte moves, so corrupt
// or hostile input (truncated tags, copies reaching before the output start,
// lengths past the declared size) returns an error and never panics,
// over-reads src, or writes outside dst.
func vsnapDecode(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		tag, n := binary.Uvarint(src[s:])
		if n <= 0 {
			return fmt.Errorf("vsnap: truncated tag at offset %d", s)
		}
		s += n
		if tag&1 == 0 {
			// Literal. Compare in uint64 so a huge declared length cannot
			// wrap when converted to int.
			ln := tag >> 1
			if ln == 0 {
				return fmt.Errorf("vsnap: zero-length literal at offset %d", s)
			}
			if ln > uint64(len(src)-s) {
				return fmt.Errorf("vsnap: literal of %d bytes overruns input (%d left)", ln, len(src)-s)
			}
			if ln > uint64(len(dst)-d) {
				return fmt.Errorf("vsnap: literal of %d bytes overruns declared size (%d left)", ln, len(dst)-d)
			}
			copy(dst[d:], src[s:s+int(ln)])
			s += int(ln)
			d += int(ln)
			continue
		}
		// Copy.
		if tag>>1 > uint64(len(dst)) {
			return fmt.Errorf("vsnap: copy of %d bytes overruns declared size %d", tag>>1, len(dst))
		}
		ln := int(tag>>1) + vsnapMinMatch
		dist64, n := binary.Uvarint(src[s:])
		if n <= 0 {
			return fmt.Errorf("vsnap: truncated copy distance at offset %d", s)
		}
		s += n
		if dist64 == 0 || dist64 > uint64(d) {
			return fmt.Errorf("vsnap: copy distance %d out of range (have %d decoded bytes)", dist64, d)
		}
		if ln > len(dst)-d {
			return fmt.Errorf("vsnap: copy of %d bytes overruns declared size (%d left)", ln, len(dst)-d)
		}
		dist := int(dist64)
		if dist >= ln {
			copy(dst[d:d+ln], dst[d-dist:])
		} else {
			// Overlapping copy: an LZ77 run; must go byte by byte so each
			// output byte can source one written a moment earlier.
			for i := 0; i < ln; i++ {
				dst[d+i] = dst[d-dist+i]
			}
		}
		d += ln
	}
	if d != len(dst) {
		return fmt.Errorf("vsnap: stream decodes to %d bytes, frame declares %d", d, len(dst))
	}
	return nil
}
