package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// walkSamples emits time-ordered samples from per-object random walks:
// full-precision drifting coordinates (raw-float XOR columns, like engine
// output), grid timestamps (scaled columns), a small string vocabulary
// (dictionary columns). This is the realistic shape the codec gates must be
// judged on — awkwardSamples stresses encoder correctness, not ratio.
func walkSamples(objects, seconds int) []trajectory.Sample {
	rng := rand.New(rand.NewSource(99))
	type walker struct{ x, y float64 }
	ws := make([]walker, objects)
	for i := range ws {
		ws[i] = walker{rng.Float64() * 50, rng.Float64() * 30}
	}
	parts := []string{"lobby", "corridor", "office-a", "office-b", "atrium"}
	var out []trajectory.Sample
	for t := 0; t < seconds; t++ {
		for o := range ws {
			ws[o].x += rng.NormFloat64() * 1.2
			ws[o].y += rng.NormFloat64() * 1.2
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc: model.At("hq", o%3, parts[(o+t/60)%len(parts)],
					geom.Pt(ws[o].x, ws[o].y)),
				T: float64(t),
			})
		}
	}
	return out
}

// blockFrame is one compressed block lifted out of a VTB image.
type blockFrame struct {
	stored []byte
	codec  byte
	rawLen int
}

// vtbFrames parses the block frames out of an in-memory VTB file image.
func vtbFrames(tb testing.TB, image []byte) []blockFrame {
	tb.Helper()
	footerOff := int64(binary.LittleEndian.Uint64(image[len(image)-tailSize:]))
	var frames []blockFrame
	for off := int64(headerSize); off < footerOff; {
		storedLen := int(binary.LittleEndian.Uint32(image[off:]))
		codec := image[off+4]
		rawLen := int(binary.LittleEndian.Uint32(image[off+5:]))
		payload := image[off+9 : off+9+int64(storedLen)]
		frames = append(frames, blockFrame{stored: payload, codec: codec, rawLen: rawLen})
		off += 9 + int64(storedLen)
	}
	return frames
}

func encodeWalk(tb testing.TB, samples []trajectory.Sample, codec Codec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, Options{BlockSize: 1024, Codec: codec})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkVSNAPVsFlate is the acceptance gate for adopting vsnap as the
// default block codec, enforcing both sides of the trade on realistic
// columnar payloads (random-walk trajectories, the shape production writes):
//
//   - decode throughput: decompressing every vsnap block of the file must
//     run at least 2x faster than decompressing the flate encoding of the
//     same blocks — measured as min-of-runs over the whole-file block set,
//     so scheduler noise cannot fail the gate spuriously;
//   - size: the vsnap file must stay within +15% of the flate file. vsnap
//     drops flate's Huffman entropy stage, and the gate bounds what that
//     may cost on payloads whose redundancy is mostly LZ-shaped.
//
// The timed section is exactly the codec stage a scan pays per block
// (decompressInto through the pooled scratch); column decoding, shared by
// every codec, is deliberately excluded so the comparison cannot be diluted.
func BenchmarkVSNAPVsFlate(b *testing.B) {
	samples := walkSamples(40, 300)
	vsnapImage := encodeWalk(b, samples, CodecVSnap)
	flateImage := encodeWalk(b, samples, CodecFlate)

	sizeRatio := float64(len(vsnapImage)) / float64(len(flateImage))

	decodeAll := func(frames []blockFrame, sc *decodeScratch) int {
		total := 0
		for _, f := range frames {
			raw, err := decompressInto(f.stored, f.codec, f.rawLen, sc)
			if err != nil {
				b.Fatal(err)
			}
			total += len(raw)
		}
		return total
	}
	timeCodec := func(image []byte) (time.Duration, int) {
		frames := vtbFrames(b, image)
		scratch := newDecodeScratch()
		sc := &scratch
		bytesOut := decodeAll(frames, sc) // warm the scratch buffers
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 9; run++ {
			start := time.Now()
			decodeAll(frames, sc)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, bytesOut
	}
	vsnapTime, vsnapBytes := timeCodec(vsnapImage)
	flateTime, flateBytes := timeCodec(flateImage)
	if vsnapBytes != flateBytes {
		b.Fatalf("decoded byte counts differ: vsnap %d, flate %d", vsnapBytes, flateBytes)
	}

	speedup := float64(flateTime) / float64(vsnapTime)
	if speedup < 2 {
		b.Fatalf("vsnap decode %v vs flate %v over %d payload bytes: %.2fx speedup, gate requires >= 2x",
			vsnapTime, flateTime, vsnapBytes, speedup)
	}
	if sizeRatio > 1.15 {
		b.Fatalf("vsnap file %d bytes vs flate %d: ratio %.3f, gate requires <= 1.15",
			len(vsnapImage), len(flateImage), sizeRatio)
	}

	b.SetBytes(int64(vsnapBytes))
	sc := newDecodeScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames := vtbFrames(b, vsnapImage)
		decodeAll(frames, &sc)
	}
	// After the loop: ResetTimer would have discarded metrics reported
	// earlier.
	b.ReportMetric(sizeRatio, "size-ratio")
	b.ReportMetric(speedup, "decode-speedup")
	b.ReportMetric(float64(vsnapBytes)/vsnapTime.Seconds()/(1<<20), "vsnap-MB/s")
	b.ReportMetric(float64(flateBytes)/flateTime.Seconds()/(1<<20), "flate-MB/s")
}
