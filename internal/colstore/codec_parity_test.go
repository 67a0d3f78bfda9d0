package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// flateFixture reads a file from testdata/flate: a small dataset written
// while flate was the default block codec (codec byte 1), with the CSV twins
// it was encoded from and a three-segment trajectory log. Nothing writes
// flate any more, so these files are how the read path stays tested.
func flateFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "flate", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestCodecParityTrajectory is the cross-codec equivalence gate: the same
// rows under every codec must come back byte-identical through the cursor,
// regardless of how the blocks were compressed. The raw file's results are
// the reference; vsnap and the flate fixture must match them
// sample-for-sample (bitwise, via sampleEqual) with identical scan stats.
// The fixture's blocks hold 128 rows, so its rows re-encoded at that size
// have its zone maps.
func TestCodecParityTrajectory(t *testing.T) {
	samples := append(awkwardSamples(), walkSamples(10, 120)...)
	image := flateFixture(t, "trajectory.vtb")
	for i, f := range vtbFrames(t, image) {
		if f.codec != codecFlate {
			t.Fatalf("fixture block %d has codec %d, want flate (%d)", i, f.codec, codecFlate)
		}
	}
	flate := readTrajectory(t, image)
	flateRows, _, err := drain(flate.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(rows []trajectory.Sample, c Codec) *TrajectoryReader {
		return readTrajectory(t, writeTrajectory(t, rows, Options{BlockSize: 128, Codec: c}))
	}
	// Each set: the raw reference first, then the readers that must match it.
	sets := map[string][]*TrajectoryReader{
		"written": {encode(samples, CodecRaw), encode(samples, CodecVSnap)},
		"flate":   {encode(flateRows, CodecRaw), encode(flateRows, CodecVSnap), flate},
	}
	preds := map[string]Predicate{
		"all":    {},
		"window": timeWindow(20, 45),
		"object": {HasObj: true, Obj: 3},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			for set, readers := range sets {
				want, wantStats, err := drain(readers[0].Cursor(pred))
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s: the predicate matches nothing", set)
				}
				for c, r := range readers[1:] {
					got, gotStats, err := drain(r.Cursor(pred))
					if err != nil {
						t.Fatalf("%s reader %d: %v", set, c+1, err)
					}
					if gotStats != wantStats {
						t.Errorf("%s reader %d: stats differ: got %+v, want %+v", set, c+1, gotStats, wantStats)
					}
					if len(got) != len(want) {
						t.Fatalf("%s reader %d: %d rows, want %d", set, c+1, len(got), len(want))
					}
					for i := range got {
						if !sampleEqual(got[i], want[i]) {
							t.Fatalf("%s reader %d: row %d differs: got %+v, want %+v", set, c+1, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestCodecParityRSSI repeats the cross-codec gate for the RSSI schema: a
// generated table raw against vsnap, and the flate fixture against its rows
// re-encoded raw and vsnap.
func TestCodecParityRSSI(t *testing.T) {
	var ms []rssi.Measurement
	for i := 0; i < 3000; i++ {
		ms = append(ms, rssi.Measurement{
			ObjID:    i % 25,
			DeviceID: []string{"wifi-1", "wifi-2", "bt-7", "uwb-3"}[i%4],
			RSSI:     -40 - float64(i%37)*1.7,
			T:        float64(i) * 0.5,
		})
	}
	open := func(data []byte) *RSSIReader {
		r, err := newRSSIReader(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	write := func(ms []rssi.Measurement, c Codec) *RSSIReader {
		var buf bytes.Buffer
		w := NewRSSIWriter(&buf, Options{BlockSize: 256, Codec: c})
		for _, m := range ms {
			if err := w.Write(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return open(buf.Bytes())
	}
	flate := open(flateFixture(t, "rssi.vtb"))
	flateRows, _, err := drain(flate.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	for name, readers := range map[string][]*RSSIReader{
		"written": {write(ms, CodecRaw), write(ms, CodecVSnap)},
		"flate":   {write(flateRows, CodecRaw), write(flateRows, CodecVSnap), flate},
	} {
		want, _, err := drain(readers[0].Cursor(Predicate{}))
		if err != nil {
			t.Fatal(err)
		}
		for c, r := range readers[1:] {
			got, _, err := drain(r.Cursor(Predicate{}))
			if err != nil {
				t.Fatalf("%s reader %d: %v", name, c+1, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s reader %d: %d rows, want %d", name, c+1, len(got), len(want))
			}
			for i := range got {
				if !measurementEqual(got[i], want[i]) {
					t.Fatalf("%s reader %d: row %d differs: got %+v, want %+v", name, c+1, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMixedCodecFile pins the per-block codec dispatch inside one file: a
// compressing writer stores any block raw when compression would not shrink
// it, so a single VTB image can carry raw and vsnap blocks side by side and
// the reader must dispatch on each block's own codec byte. (Mixed codecs
// across segments of one log — different writer eras — are covered by the
// seglog serve parity test.)
func TestMixedCodecFile(t *testing.T) {
	// Alternate block-aligned stretches of constant rows (collapse to a few
	// bytes under vsnap) and fully random rows (every column random, so the
	// encoded block does not shrink and the writer's fallback stores it
	// raw). One file, both codec bytes.
	rng := rand.New(rand.NewSource(3))
	randString := func() string {
		b := make([]byte, 8)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	const blockSize = 64
	var samples []trajectory.Sample
	for stretch := 0; stretch < 6; stretch++ {
		for i := 0; i < blockSize; i++ {
			s := trajectory.Sample{
				ObjID: stretch,
				Loc:   model.At("hq", 1, "lobby", geom.Pt(1, 2)),
				T:     float64(stretch),
			}
			if stretch%2 == 1 {
				s = trajectory.Sample{
					ObjID: rng.Int(),
					Loc: model.At(randString(), rng.Int(), randString(),
						geom.Pt(rng.NormFloat64()*1e17, rng.NormFloat64()*1e17)),
					T: rng.NormFloat64() * 1e17,
				}
			}
			samples = append(samples, s)
		}
	}
	data := writeTrajectory(t, samples, Options{BlockSize: blockSize, Codec: CodecVSnap})
	frames := vtbFrames(t, data)
	seen := map[byte]int{}
	for _, f := range frames {
		seen[f.codec]++
	}
	if seen[codecVSnap] == 0 || seen[codecRaw] == 0 {
		t.Fatalf("want both vsnap and raw blocks in one file, got codec mix %v", seen)
	}
	r := readTrajectory(t, data)
	got, _, err := drain(r.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(samples))
	}
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	t.Logf("codec mix across %d blocks: %v", len(frames), seen)
}

// walkSamples emits time-ordered samples from per-object random walks:
// full-precision drifting coordinates (raw-float XOR columns, like engine
// output), grid timestamps (scaled columns), a small string vocabulary
// (dictionary columns). This is the realistic shape codec tests must be
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
