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
	"vita/internal/trajectory"
)

// fixture reads a file from testdata/<codec>. testdata/flate is a small
// dataset written while flate was the default block codec (codec byte 1),
// with the CSV twins it was encoded from and a three-segment trajectory log;
// testdata/raw holds the same trajectory and RSSI rows with every block
// stored verbatim (codec byte 0), in the same 128-row blocks. No writer
// produces either codec on its own any more (vsnap stores a block raw only
// when it would not shrink), so these files are how those read paths stay
// tested.
func fixture(tb testing.TB, codec, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", codec, name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestCodecParityTrajectory is the cross-codec equivalence gate: the same
// rows under every codec must come back byte-identical through the cursor,
// regardless of how the blocks were compressed. The raw fixture's results
// are the reference; the flate fixture and the same rows re-encoded (vsnap)
// must match them sample-for-sample (bitwise, via sampleEqual) with
// identical scan stats. The fixtures' blocks hold 128 rows, so their rows
// re-encoded at that size have their zone maps.
func TestCodecParityTrajectory(t *testing.T) {
	images := map[byte][]byte{
		codecRaw:   fixture(t, "raw", "trajectory.vtb"),
		codecFlate: fixture(t, "flate", "trajectory.vtb"),
	}
	for codec, image := range images {
		for i, f := range vtbFrames(t, image) {
			if f.codec != codec {
				t.Fatalf("fixture block %d has codec %d, want %d", i, f.codec, codec)
			}
		}
	}
	raw := readTrajectory(t, images[codecRaw])
	rows, _, err := drain(raw.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	// The raw reference first, then the readers that must match it.
	readers := []*TrajectoryReader{
		raw,
		readTrajectory(t, writeTrajectory(t, rows, Options{BlockSize: 128})),
		readTrajectory(t, images[codecFlate]),
	}
	preds := map[string]Predicate{
		"all":    {},
		"window": timeWindow(20, 45),
		"object": {HasObj: true, Obj: 3},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want, wantStats, err := drain(readers[0].Cursor(pred))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("the predicate matches nothing")
			}
			for c, r := range readers[1:] {
				got, gotStats, err := drain(r.Cursor(pred))
				if err != nil {
					t.Fatalf("reader %d: %v", c+1, err)
				}
				if gotStats != wantStats {
					t.Errorf("reader %d: stats differ: got %+v, want %+v", c+1, gotStats, wantStats)
				}
				if len(got) != len(want) {
					t.Fatalf("reader %d: %d rows, want %d", c+1, len(got), len(want))
				}
				for i := range got {
					if !sampleEqual(got[i], want[i]) {
						t.Fatalf("reader %d: row %d differs: got %+v, want %+v", c+1, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCodecParityRSSI repeats the cross-codec gate for the RSSI schema: the
// raw fixture against the flate fixture and its rows re-encoded (vsnap).
func TestCodecParityRSSI(t *testing.T) {
	open := func(data []byte) *RSSIReader {
		r, err := newRSSIReader(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	raw := open(fixture(t, "raw", "rssi.vtb"))
	want, _, err := drain(raw.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewRSSIWriter(&buf, Options{BlockSize: 128})
	for _, m := range want {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for c, r := range []*RSSIReader{open(buf.Bytes()), open(fixture(t, "flate", "rssi.vtb"))} {
		got, _, err := drain(r.Cursor(Predicate{}))
		if err != nil {
			t.Fatalf("reader %d: %v", c+1, err)
		}
		if len(got) != len(want) {
			t.Fatalf("reader %d: %d rows, want %d", c+1, len(got), len(want))
		}
		for i := range got {
			if !measurementEqual(got[i], want[i]) {
				t.Fatalf("reader %d: row %d differs: got %+v, want %+v", c+1, i, got[i], want[i])
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
	data := writeTrajectory(t, samples, Options{BlockSize: blockSize})
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
