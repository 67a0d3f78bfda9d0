package colstore

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// sampleEqual compares samples bit-for-bit (so -0.0 vs 0.0 and other
// float-identity hazards are caught, unlike ==).
func sampleEqual(a, b trajectory.Sample) bool {
	return a.ObjID == b.ObjID &&
		a.Loc.Building == b.Loc.Building &&
		a.Loc.Floor == b.Loc.Floor &&
		a.Loc.Partition == b.Loc.Partition &&
		math.Float64bits(a.Loc.Point.X) == math.Float64bits(b.Loc.Point.X) &&
		math.Float64bits(a.Loc.Point.Y) == math.Float64bits(b.Loc.Point.Y) &&
		a.Loc.HasPoint == b.Loc.HasPoint &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

func measurementEqual(a, b rssi.Measurement) bool {
	return a.ObjID == b.ObjID && a.DeviceID == b.DeviceID &&
		math.Float64bits(a.RSSI) == math.Float64bits(b.RSSI) &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

// awkwardSamples exercises every encoder path: irrational coordinates (raw
// float mode), grid timestamps (scaled mode), negative zero, negative
// coordinates and floors, symbolic (point-less) rows, huge IDs, repeated and
// empty strings.
func awkwardSamples() []trajectory.Sample {
	var out []trajectory.Sample
	parts := []string{"lobby", "room-1.2", "", "lobby", "corridor/θ"}
	for i := 0; i < 1000; i++ {
		s := trajectory.Sample{
			ObjID: i * 37,
			Loc: model.At("hq", i%5-2, parts[i%len(parts)],
				geom.Pt(math.Pi*float64(i)-500, math.Sqrt(float64(i)))),
			T: float64(i) * 0.25,
		}
		switch i % 97 {
		case 13:
			s.Loc.HasPoint = false
		case 29:
			s.Loc.Point = geom.Pt(math.Copysign(0, -1), 1e-300)
		case 31:
			s.T = float64(i) + 1e-9 // off-grid timestamp
		}
		out = append(out, s)
	}
	return out
}

func writeTrajectory(t *testing.T, samples []trajectory.Sample, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, opts)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// drain collects every row a cursor yields, then closes it.
func drain[T any, B RowBatch[T]](c *Cursor[B]) ([]T, ScanStats, error) {
	var out []T
	for c.Next() {
		b := c.Batch()
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
	stats := c.Stats()
	return out, stats, c.Close()
}

// newRSSIReader opens an RSSI VTB image held in r, as NewTrajectoryReader
// does a trajectory one.
func newRSSIReader(r io.ReaderAt, size int64) (*RSSIReader, error) {
	return rssiOps.reader(openReader(r, size, KindRSSI))
}

// timeWindow returns a predicate matching rows with t in [t0, t1].
func timeWindow(t0, t1 float64) Predicate {
	return Predicate{HasTime: true, T0: t0, T1: t1}
}

func readTrajectory(t *testing.T, data []byte) *TrajectoryReader {
	t.Helper()
	r, err := NewTrajectoryReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r
}

func TestTrajectoryRoundTripLossless(t *testing.T) {
	for _, opts := range []Options{{}, {BlockSize: 64}, {BlockSize: 7, Codec: CodecRaw}} {
		samples := awkwardSamples()
		data := writeTrajectory(t, samples, opts)
		r := readTrajectory(t, data)
		if r.Len() != len(samples) {
			t.Fatalf("opts %+v: Len = %d, want %d", opts, r.Len(), len(samples))
		}
		got, _, err := drain(r.Cursor(Predicate{}))
		if err != nil {
			t.Fatalf("opts %+v: read all: %v", opts, err)
		}
		if len(got) != len(samples) {
			t.Fatalf("opts %+v: decoded %d samples, want %d", opts, len(got), len(samples))
		}
		for i := range got {
			if !sampleEqual(got[i], samples[i]) {
				t.Fatalf("opts %+v: sample %d differs: got %+v, want %+v", opts, i, got[i], samples[i])
			}
		}
	}
}

func TestRSSIRoundTripLossless(t *testing.T) {
	var ms []rssi.Measurement
	for i := 0; i < 500; i++ {
		ms = append(ms, rssi.Measurement{
			ObjID:    i % 40,
			DeviceID: []string{"wifi-1", "wifi-2", "bt-7"}[i%3],
			RSSI:     -40 - 30*math.Sin(float64(i)),
			T:        float64(i) * 0.5,
		})
	}
	var buf bytes.Buffer
	w := NewRSSIWriter(&buf, Options{BlockSize: 128})
	for _, m := range ms {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := newRSSIReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := drain(r.Cursor(Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ms) {
		t.Fatalf("decoded %d measurements, want %d", len(got), len(ms))
	}
	for i := range got {
		if !measurementEqual(got[i], ms[i]) {
			t.Fatalf("measurement %d differs: got %+v, want %+v", i, got[i], ms[i])
		}
	}
}

// gridSamples emits one sample per second per object, time-ordered like the
// generation pipeline: objects interleaved within each second.
func gridSamples(objects, seconds int) []trajectory.Sample {
	var out []trajectory.Sample
	for t := 0; t < seconds; t++ {
		for o := 0; o < objects; o++ {
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc:   model.At("b", o%2, "p", geom.Pt(float64(t%50), float64(o))),
				T:     float64(t),
			})
		}
	}
	return out
}

func TestScanTimeWindowPruning(t *testing.T) {
	samples := gridSamples(10, 600) // 6000 rows
	data := writeTrajectory(t, samples, Options{BlockSize: 256})
	r := readTrajectory(t, data)

	pred := timeWindow(100, 130)
	got, stats, err := drain(r.Cursor(pred))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksPruned == 0 {
		t.Errorf("time-window scan pruned no blocks: %+v", stats)
	}
	if stats.BlocksScanned+stats.BlocksPruned != stats.BlocksTotal {
		t.Errorf("inconsistent stats: %+v", stats)
	}
	var want []trajectory.Sample
	for _, s := range samples {
		if s.T >= 100 && s.T <= 130 {
			want = append(want, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !sampleEqual(got[i], want[i]) {
			t.Fatalf("row %d differs: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestScanPredicates(t *testing.T) {
	samples := gridSamples(8, 400)
	data := writeTrajectory(t, samples, Options{BlockSize: 200})
	r := readTrajectory(t, data)

	match := func(pred Predicate) (int, ScanStats) {
		rows, stats, err := drain(r.Cursor(pred))
		if err != nil {
			t.Fatal(err)
		}
		return len(rows), stats
	}
	brute := func(keep func(trajectory.Sample) bool) int {
		n := 0
		for _, s := range samples {
			if keep(s) {
				n++
			}
		}
		return n
	}

	if n, _ := match(Predicate{HasObj: true, Obj: 3}); n != brute(func(s trajectory.Sample) bool { return s.ObjID == 3 }) {
		t.Errorf("object predicate returned %d rows", n)
	}
	if n, _ := match(Predicate{HasFloor: true, Floor: 1}); n != brute(func(s trajectory.Sample) bool { return s.Loc.Floor == 1 }) {
		t.Errorf("floor predicate returned %d rows", n)
	}
	box := geom.BBox{Min: geom.Pt(10, 0), Max: geom.Pt(20, 3)}
	if n, _ := match(Predicate{HasBox: true, Box: box}); n != brute(func(s trajectory.Sample) bool { return s.Loc.HasPoint && box.Contains(s.Loc.Point) }) {
		t.Errorf("box predicate returned %d rows", n)
	}
	// An unknown floor must prune every block without reading any.
	if n, stats := match(Predicate{HasFloor: true, Floor: 99}); n != 0 || stats.BlocksScanned != 0 {
		t.Errorf("unknown floor scanned %d blocks, matched %d rows", stats.BlocksScanned, n)
	}
	// A window past the data must prune everything too.
	if n, stats := match(timeWindow(1e6, 2e6)); n != 0 || stats.BlocksScanned != 0 {
		t.Errorf("out-of-span window scanned %d blocks, matched %d rows", stats.BlocksScanned, n)
	}
}

func TestEmptyFile(t *testing.T) {
	data := writeTrajectory(t, nil, Options{})
	r := readTrajectory(t, data)
	if r.Len() != 0 {
		t.Fatalf("empty file Len = %d", r.Len())
	}
	got, _, err := drain(r.Cursor(Predicate{}))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file scan = %d rows, err %v", len(got), err)
	}
}

func TestKindMismatch(t *testing.T) {
	data := writeTrajectory(t, gridSamples(2, 10), Options{})
	if _, err := newRSSIReader(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("opening a trajectory file as RSSI succeeded")
	}
}

func TestCorruptInputs(t *testing.T) {
	data := writeTrajectory(t, gridSamples(4, 100), Options{BlockSize: 64})
	cases := map[string][]byte{
		"not vtb":          []byte("o_id,building,floor\n1,b,0\n"),
		"empty":            {},
		"truncated header": data[:6],
		"truncated footer": data[:len(data)-20],
		"bad tail magic": append(append([]byte{}, data[:len(data)-4]...),
			'n', 'o', 'p', 'e'),
	}
	for name, b := range cases {
		if _, err := NewTrajectoryReader(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Errorf("%s: open succeeded, want error", name)
		}
	}

	// Corrupting block bytes must surface as a decode error, not a panic.
	mangled := append([]byte{}, data...)
	for i := headerSize + 12; i < headerSize+40 && i < len(mangled); i++ {
		mangled[i] ^= 0xff
	}
	r, err := NewTrajectoryReader(bytes.NewReader(mangled), int64(len(mangled)))
	if err != nil {
		return // corruption already caught at open: fine
	}
	if _, _, err := drain(r.Cursor(Predicate{})); err == nil {
		t.Error("reading mangled block succeeded, want error")
	}
}

func TestSniff(t *testing.T) {
	dir := t.TempDir()
	vtb := dir + "/a.vtb"
	if err := writeFile(vtb, writeTrajectory(t, gridSamples(2, 5), Options{})); err != nil {
		t.Fatal(err)
	}
	csv := dir + "/a.csv"
	if err := writeFile(csv, []byte("o_id,building,floor,partition,x,y,t\n")); err != nil {
		t.Fatal(err)
	}
	kind, ok, err := Sniff(vtb)
	if err != nil || !ok || kind != KindTrajectory {
		t.Fatalf("Sniff(vtb) = %v, %v, %v", kind, ok, err)
	}
	if _, ok, err := Sniff(csv); err != nil || ok {
		t.Fatalf("Sniff(csv) detected VTB, err %v", err)
	}
	short := dir + "/short"
	if err := writeFile(short, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Sniff(short); err != nil || ok {
		t.Fatalf("Sniff(short) = %v, err %v", ok, err)
	}
}

// TestFloatColumnModes pins the encoder's mode selection: grid timestamps
// must hit the compact scaled path, irrational values the raw path, and both
// must round-trip bit-for-bit.
func TestFloatColumnModes(t *testing.T) {
	check := func(vals []float64, wantMode byte) {
		t.Helper()
		enc := appendFloatColumn(nil, vals)
		if enc[0] != wantMode {
			t.Fatalf("mode = %d, want %d for %v...", enc[0], wantMode, vals[:min(3, len(vals))])
		}
		c := &cursor{b: enc}
		sc := newDecodeScratch()
		got := c.floatColumnInto(len(vals), nil, &sc)
		if c.err != nil {
			t.Fatalf("decode: %v", c.err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: got %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	}
	check([]float64{0, 0.25, 0.5, 120.75, -3.25}, floatScaled)
	check([]float64{-87.5, -40.1, -33.3333}, floatScaled) // all exact at 1e4
	check([]float64{math.Pi, math.E, math.Sqrt2}, floatRaw)
	check([]float64{math.Copysign(0, -1)}, floatRaw) // -0 must not collapse to +0
	check([]float64{1e300, -1e300, 5e-324}, floatRaw)
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
