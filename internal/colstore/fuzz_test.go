package colstore

import (
	"bytes"
	"testing"
)

// FuzzVSnapDecode hammers the vsnap decoder with arbitrary byte streams and
// declared output sizes. The decoder's contract under corruption is strict:
// it must either fill dst exactly or return an error — never panic, never
// read past src, never write outside dst. A second property checks the
// encoder side: whatever bytes the fuzzer invents must round-trip through
// encode → decode unchanged.
func FuzzVSnapDecode(f *testing.F) {
	var table [vsnapTableSize]int32
	f.Add([]byte{}, 0)
	f.Add([]byte{2 << 1, 'a', 'b'}, 2)
	f.Add([]byte{2 << 1, 'a', 'b', (8-vsnapMinMatch)<<1 | 1, 2}, 10)
	f.Add(vsnapAppend(nil, bytes.Repeat([]byte("vita"), 100), table[:]), 400)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, 64)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		// Decode property: arbitrary stream, bounded declared size.
		if rawLen >= 0 && rawLen <= 4*len(data)+1024 {
			dst := make([]byte, rawLen)
			if err := vsnapDecode(dst, data); err == nil {
				// A successful decode must be reproducible from a fresh
				// buffer (the decoder may not depend on dst's contents).
				again := make([]byte, rawLen)
				if err := vsnapDecode(again, data); err != nil || !bytes.Equal(dst, again) {
					t.Fatalf("decode not deterministic: err=%v", err)
				}
			}
		}
		// Round-trip property: data as the raw input.
		var tbl [vsnapTableSize]int32
		enc := vsnapAppend(nil, data, tbl[:])
		dec := make([]byte, len(data))
		if err := vsnapDecode(dec, enc); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip mismatch on %d-byte input", len(data))
		}
	})
}

// FuzzDecodeBlock opens arbitrary bytes as a VTB trajectory file and scans
// it. Corrupt headers, footers, zone maps, block frames, codec bytes, and
// compressed payloads must all surface as errors — never a panic, index
// out of range, or unbounded allocation — and a block that does decode holds
// exactly the rows its zone map counts. Seeds are valid files under every
// codec a reader decodes — vsnap written here, raw and flate from the
// fixtures — so the fuzzer starts from structure-preserving mutations
// (flipping codec bytes, truncating payloads, corrupting LZ and DEFLATE
// streams) rather than noise that dies at the magic check; two more are
// corrupt in ways a mutation rarely finds: a dictionary that repeats an
// entry, and a footer whose row count disagrees with its block.
func FuzzDecodeBlock(f *testing.F) {
	samples := awkwardSamples()[:200]
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, Options{BlockSize: 64})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	vsnap := buf.Bytes()
	f.Add(vsnap)
	f.Add(fixture(f, "raw", "trajectory.vtb"))
	f.Add(fixture(f, "flate", "trajectory.vtb"))
	f.Add([]byte("VTB1"))
	f.Add(rawImage(f, twoRows([]string{"hq", "hq"}, 0, 1)))
	f.Add(withBlockCount(vsnap, 0, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewTrajectoryReader(data)
		if err != nil {
			return
		}
		// Every block on its own, through decompressInto into a fresh batch.
		for i, zm := range r.Blocks() {
			if b, err := r.DecodeBlock(i); err == nil && b.Len() != zm.Count {
				t.Fatalf("block %d decoded %d rows, its zone map says %d", i, b.Len(), zm.Count)
			}
		}
		// The cursor too — it shares blockBytes but decodes into its scratch.
		cur := r.Cursor(Predicate{})
		for cur.Next() {
		}
		_ = cur.Close()
	})
}
