package colstore

import (
	"bytes"
	"math/rand"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// TestCodecParityTrajectory is the cross-codec equivalence gate: the same
// rows written under every codec must come back byte-identical through the
// cursor, regardless of how the blocks were compressed. The raw file's
// results are the reference; vsnap and flate must match them
// sample-for-sample (bitwise, via sampleEqual) with identical scan stats.
func TestCodecParityTrajectory(t *testing.T) {
	samples := append(awkwardSamples(), walkSamples(10, 120)...)
	codecs := []Codec{CodecRaw, CodecVSnap, CodecFlate}
	preds := map[string]Predicate{
		"all":    {},
		"window": TimeWindow(40, 90),
		"object": {HasObj: true, Obj: 3},
	}
	readers := make(map[Codec]*TrajectoryReader, len(codecs))
	for _, c := range codecs {
		readers[c] = readTrajectory(t, writeTrajectory(t, samples, Options{BlockSize: 128, Codec: c}))
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want, wantStats, err := drain(readers[CodecRaw].Cursor(pred))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range codecs[1:] {
				got, gotStats, err := drain(readers[c].Cursor(pred))
				if err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				if gotStats != wantStats {
					t.Errorf("%v: stats differ: got %+v, want %+v", c, gotStats, wantStats)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d rows, want %d", c, len(got), len(want))
				}
				for i := range got {
					if !sampleEqual(got[i], want[i]) {
						t.Fatalf("%v: row %d differs: got %+v, want %+v", c, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCodecParityRSSI repeats the cross-codec gate for the RSSI schema.
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
	write := func(c Codec) *RSSIReader {
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
		r, err := NewRSSIReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, _, err := drain(write(CodecRaw).Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Codec{CodecVSnap, CodecFlate} {
		got, _, err := drain(write(c).Cursor(Predicate{}))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", c, len(got), len(want))
		}
		for i := range got {
			if !measurementEqual(got[i], want[i]) {
				t.Fatalf("%v: row %d differs: got %+v, want %+v", c, i, got[i], want[i])
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
