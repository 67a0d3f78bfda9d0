package colstore

import (
	"bytes"
	"math"
	"testing"

	"vita/internal/geom"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// cursorPreds is the predicate table shared by the cursor equality tests —
// every pruning and filtering shape the predicate language supports.
func cursorPreds() map[string]Predicate {
	return map[string]Predicate{
		"all":         {},
		"time window": TimeWindow(100, 130),
		"object":      {HasObj: true, Obj: 3},
		"floor":       {HasFloor: true, Floor: 1},
		"box": {HasBox: true,
			Box: geom.BBox{Min: geom.Pt(10, 0), Max: geom.Pt(20, 3)}},
		"combined": {HasTime: true, T0: 50, T1: 400, HasFloor: true, Floor: 0,
			HasBox: true, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(30, 6)}},
		"nothing": TimeWindow(1e6, 2e6),
	}
}

// collectCursor drains a trajectory cursor into rows + stats.
func collectCursor(t *testing.T, c *TrajectoryCursor) ([]trajectory.Sample, ScanStats) {
	t.Helper()
	var rows []trajectory.Sample
	for c.Next() {
		b := c.Batch()
		if b.Len() == 0 {
			t.Fatal("Next returned an empty batch")
		}
		rows = b.AppendTo(rows)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return rows, c.Stats()
}

// TestCursorMatchesScan is the equality gate for the batch API: for every
// predicate shape, the cursor's concatenated batches must be exactly the
// rows of Scan — and of ScanParallel at every parallelism — with identical
// ScanStats.
func TestCursorMatchesScan(t *testing.T) {
	samples := gridSamples(10, 600) // 6000 rows over many 256-row blocks
	data := writeTrajectory(t, samples, Options{BlockSize: 256})
	r := readTrajectory(t, data)

	for name, pred := range cursorPreds() {
		t.Run(name, func(t *testing.T) {
			var want []trajectory.Sample
			wantStats, err := r.Scan(pred, func(s trajectory.Sample) { want = append(want, s) })
			if err != nil {
				t.Fatalf("sequential scan: %v", err)
			}
			got, gotStats := collectCursor(t, r.Cursor(pred))
			if gotStats != wantStats {
				t.Errorf("stats differ: cursor %+v, scan %+v", gotStats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("cursor yielded %d rows, scan %d", len(got), len(want))
			}
			for i := range got {
				if !sampleEqual(got[i], want[i]) {
					t.Fatalf("row %d differs: got %+v, want %+v", i, got[i], want[i])
				}
			}
			for _, p := range []int{1, 2, 8} {
				var prows []trajectory.Sample
				pstats, err := r.ScanParallel(pred, p, func(s trajectory.Sample) { prows = append(prows, s) })
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if pstats != gotStats {
					t.Errorf("p=%d: stats differ: parallel %+v, cursor %+v", p, pstats, gotStats)
				}
				if len(prows) != len(got) {
					t.Fatalf("p=%d: %d rows, cursor %d", p, len(prows), len(got))
				}
				for i := range prows {
					if !sampleEqual(prows[i], got[i]) {
						t.Fatalf("p=%d: row %d differs", p, i)
					}
				}
			}
		})
	}
}

// TestCursorRSSI checks the RSSI cursor against Scan, including the rule
// that floor/box constraints are dropped for RSSI rows.
func TestCursorRSSI(t *testing.T) {
	var ms []rssi.Measurement
	for i := 0; i < 3000; i++ {
		ms = append(ms, rssi.Measurement{
			ObjID:    i % 12,
			DeviceID: []string{"wifi-1", "wifi-2"}[i%2],
			RSSI:     -40 - float64(i%50),
			T:        float64(i) * 0.5,
		})
	}
	var buf bytes.Buffer
	w := NewRSSIWriterOptions(&buf, Options{BlockSize: 128})
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
	pred := Predicate{HasTime: true, T0: 100, T1: 900, HasObj: true, Obj: 5,
		HasFloor: true, Floor: 99, HasBox: true, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}}
	var want []rssi.Measurement
	wantStats, err := r.Scan(pred, func(m rssi.Measurement) { want = append(want, m) })
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test predicate matched nothing")
	}
	c := r.Cursor(pred)
	var got []rssi.Measurement
	for c.Next() {
		got = c.Batch().AppendTo(got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != wantStats {
		t.Errorf("stats differ: cursor %+v, scan %+v", c.Stats(), wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d rows, scan %d", len(got), len(want))
	}
	for i := range got {
		if !measurementEqual(got[i], want[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestCursorBatchColumns spot-checks that the column view and the row view
// agree, and that batches are rewritten (not reallocated) across blocks.
func TestCursorBatchColumns(t *testing.T) {
	samples := gridSamples(6, 400)
	data := writeTrajectory(t, samples, Options{BlockSize: 128})
	r := readTrajectory(t, data)
	c := r.Cursor(Predicate{})
	defer c.Close()
	first := true
	var firstBatch *TrajectoryBatch
	rows := 0
	for c.Next() {
		b := c.Batch()
		if first {
			firstBatch = b
			first = false
		} else if b != firstBatch {
			t.Fatal("Batch() returned a different batch pointer across Next calls")
		}
		if len(b.Building) != b.Len() || len(b.T) != b.Len() || len(b.HasPoint) != b.Len() {
			t.Fatalf("ragged batch: lens %d/%d/%d vs %d", len(b.Building), len(b.T), len(b.HasPoint), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			s := b.Row(i)
			if s.T != b.T[i] || int64(s.ObjID) != b.ObjID[i] || s.Loc.Building != b.Building[i] {
				t.Fatalf("row %d disagrees with columns", i)
			}
			if !sampleEqual(s, samples[rows]) {
				t.Fatalf("global row %d differs", rows)
			}
			rows++
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != len(samples) {
		t.Fatalf("cursor yielded %d rows, want %d", rows, len(samples))
	}
}

// TestCursorCorruptBlock checks that a corrupt block surfaces through Err
// (not a panic) and stops iteration.
func TestCursorCorruptBlock(t *testing.T) {
	samples := gridSamples(4, 400)
	data := writeTrajectory(t, samples, Options{BlockSize: 64})
	r := readTrajectory(t, data)
	mid := r.rd.offsets[len(r.rd.offsets)/2]
	mangled := append([]byte{}, data...)
	for i := mid + 12; i < mid+40 && i < int64(len(mangled)); i++ {
		mangled[i] ^= 0xff
	}
	mr, err := NewTrajectoryReader(bytes.NewReader(mangled), int64(len(mangled)))
	if err != nil {
		t.Skip("corruption caught at open; block decode not reachable")
	}
	c := mr.Cursor(Predicate{})
	rows := 0
	for c.Next() {
		rows += c.Batch().Len()
	}
	if c.Err() == nil {
		t.Fatal("cursor over mangled file reported no error")
	}
	if c.Close() == nil {
		t.Fatal("Close did not surface the cursor error")
	}
	if rows >= len(samples) {
		t.Fatalf("cursor yielded %d rows despite corrupt block", rows)
	}
	if c.Next() {
		t.Fatal("Next returned true after error")
	}
}

// TestCursorClose checks that a closed cursor stops iterating and that
// closing twice is safe.
func TestCursorClose(t *testing.T) {
	samples := gridSamples(4, 200)
	data := writeTrajectory(t, samples, Options{BlockSize: 64})
	r := readTrajectory(t, data)
	c := r.Cursor(Predicate{})
	if !c.Next() {
		t.Fatalf("first Next failed: %v", c.Err())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Next() {
		t.Fatal("Next returned true after Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorStatsAcrossPredicates double-checks the pruning counters line up
// with the zone-map geometry for a window that skips most of the file.
func TestCursorStatsAcrossPredicates(t *testing.T) {
	samples := gridSamples(10, 600)
	data := writeTrajectory(t, samples, Options{BlockSize: 256})
	r := readTrajectory(t, data)
	c := r.Cursor(TimeWindow(100, 130))
	for c.Next() {
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.BlocksPruned == 0 {
		t.Fatalf("no blocks pruned: %+v", st)
	}
	if st.BlocksScanned+st.BlocksPruned != st.BlocksTotal {
		t.Fatalf("block counters inconsistent: %+v", st)
	}
	if st.RowsMatched == 0 {
		t.Fatalf("window matched nothing: %+v", st)
	}
}

// TestSelectMatchesRowPredicate holds the columnar filter kernel to the row
// predicate it replaced: for every predicate shape, over rows that include
// point-less ones, NaN timestamps and coordinates sitting on a box edge,
// SelectTrajectory names exactly the rows MatchTrajectory accepts; Gather
// through that selection (into a second batch, and in place) yields exactly
// those rows; and CoversBlock only ever claims a block whose every row
// matches.
func TestSelectMatchesRowPredicate(t *testing.T) {
	samples := awkwardSamples()
	samples[7].T = math.NaN()
	samples[8].Loc.Point.X = math.NaN()
	box := geom.BBox{Min: geom.Pt(-400, 5), Max: geom.Pt(900, 20)}
	samples[9].Loc.Point = geom.Pt(box.Min.X-geom.Eps/2, box.Max.Y+geom.Eps/2) // inside by tolerance
	samples[10].Loc.Point = geom.Pt(box.Min.X-2*geom.Eps, 10)                  // outside by more
	samples[11].Loc = samples[9].Loc
	samples[11].Loc.HasPoint = false // in the box, but symbolic

	preds := cursorPreds()
	preds["awkward box"] = Predicate{HasBox: true, Box: box}
	preds["awkward all four"] = Predicate{HasTime: true, T0: 1, T1: 200, HasFloor: true, Floor: -1,
		HasBox: true, Box: box, HasObj: true, Obj: 37 * 43}
	preds["awkward floor+obj"] = Predicate{HasFloor: true, Floor: 2, HasObj: true, Obj: 37 * 4}
	preds["one instant"] = TimeWindow(2.5, 2.5)

	var whole TrajectoryBatch
	for _, s := range samples {
		whole.Append(s)
	}
	var sel []int32
	for name, p := range preds {
		sel = p.SelectTrajectory(&whole, sel)
		var want []trajectory.Sample
		k := 0
		for i := 0; i < whole.Len(); i++ {
			row := whole.Row(i)
			if !p.MatchTrajectory(row) {
				continue
			}
			want = append(want, row)
			if k >= len(sel) || int(sel[k]) != i {
				t.Fatalf("%s: row %d matches but the selection skips it", name, i)
			}
			k++
		}
		if k != len(sel) {
			t.Fatalf("%s: selection has %d rows, MatchTrajectory accepts %d", name, len(sel), k)
		}

		var copied, inPlace TrajectoryBatch
		copied.Gather(&whole, sel)
		inPlace.AppendBatch(&whole)
		inPlace.Gather(&inPlace, sel)
		for _, got := range []*TrajectoryBatch{&copied, &inPlace} {
			if got.Len() != len(want) {
				t.Fatalf("%s: gathered %d rows, want %d", name, got.Len(), len(want))
			}
			for i := range want {
				if !sampleEqual(got.Row(i), want[i]) {
					t.Fatalf("%s: gathered row %d is %+v, want %+v", name, i, got.Row(i), want[i])
				}
			}
		}
	}

	// CoversBlock against real zone maps: whenever it says yes, no row of the
	// block may fail the predicate.
	tr := readTrajectory(t, writeTrajectory(t, gridSamples(6, 600), Options{BlockSize: 64}))
	covered := 0
	for name, p := range cursorPreds() {
		for i, zm := range tr.Blocks() {
			if !p.CoversBlock(zm) {
				continue
			}
			covered++
			b, err := tr.DecodeBlockBatch(i)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.SelectTrajectory(b, nil); len(got) != b.Len() {
				t.Errorf("%s: block %d claimed covered, but %d of %d rows match", name, i, len(got), b.Len())
			}
		}
	}
	if covered == 0 {
		t.Error("no predicate covered any block; the check proved nothing")
	}
}
