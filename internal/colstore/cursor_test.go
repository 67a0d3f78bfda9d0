package colstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"vita/internal/geom"
	"vita/internal/trajectory"
)

// cursorPreds is the predicate table of the select-kernel tests — every
// pruning and filtering shape the predicate language supports. (The cursor
// contract itself — rows, order, stats, Close, corruption — is pinned for every
// implementation at once by internal/serve's TestCursorConformance.)
func cursorPreds() map[string]Predicate {
	return map[string]Predicate{
		"all":         {},
		"time window": timeWindow(100, 130),
		"object":      {HasObj: true, Obj: 3},
		"floor":       {HasFloor: true, Floor: 1},
		"box": {HasBox: true,
			Box: geom.BBox{Min: geom.Pt(10, 0), Max: geom.Pt(20, 3)}},
		"combined": {HasTime: true, T0: 50, T1: 400, HasFloor: true, Floor: 0,
			HasBox: true, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(30, 6)}},
		"nothing": timeWindow(1e6, 2e6),
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
		if b.Building.Len() != b.Len() || len(b.T) != b.Len() || len(b.HasPoint) != b.Len() {
			t.Fatalf("ragged batch: lens %d/%d/%d vs %d", b.Building.Len(), len(b.T), len(b.HasPoint), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			s := b.Row(i)
			if s.T != b.T[i] || int64(s.ObjID) != b.ObjID[i] || s.Loc.Building != b.Building.At(i) {
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

// TestDecodeBlock checks the cache entry point: every block decodes in full,
// whatever the predicate of any cursor, into a batch of its zone map's size.
func TestDecodeBlock(t *testing.T) {
	samples := gridSamples(6, 300)
	data := writeTrajectory(t, samples, Options{BlockSize: 128})
	r := readTrajectory(t, data)
	zones := r.Blocks()
	var all []trajectory.Sample
	for i := range zones {
		b, err := r.DecodeBlock(i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if b.Len() != zones[i].Count {
			t.Fatalf("block %d: decoded %d rows, zone map says %d", i, b.Len(), zones[i].Count)
		}
		all = b.AppendTo(all)
	}
	if len(all) != len(samples) {
		t.Fatalf("blocks hold %d rows, want %d", len(all), len(samples))
	}
	for i := range all {
		if !sampleEqual(all[i], samples[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	if _, err := r.DecodeBlock(-1); err == nil {
		t.Error("DecodeBlock(-1) succeeded")
	}
	if _, err := r.DecodeBlock(len(zones)); err == nil {
		t.Error("DecodeBlock(len) succeeded")
	}
}

// withBlockCount returns a copy of a VTB image whose footer declares count
// rows for block i.
func withBlockCount(img []byte, i, count int) []byte {
	out := bytes.Clone(img)
	footerOff := int(binary.LittleEndian.Uint64(out[len(out)-tailSize:]))
	binary.LittleEndian.PutUint32(out[footerOff+4+i*footerEntrySize+8:], uint32(count))
	return out
}

// TestBlockCountMustMatchFooter: a block that decodes more or fewer rows
// than its zone map's Count is corrupt. Otherwise Len, and everything counted
// from the footer (the served dataset's sample counts), disagrees with what a
// scan reads: with block 0 of a 200-row file patched to claim 7 rows, Len
// said 143 while a scan yielded 200.
func TestBlockCountMustMatchFooter(t *testing.T) {
	img := writeTrajectory(t, awkwardSamples()[:200], Options{BlockSize: 64})
	for _, count := range []int{7, 63, 65, 1 << 20} {
		r := readTrajectory(t, withBlockCount(img, 0, count))
		if b, err := r.DecodeBlock(0); err == nil {
			t.Errorf("count %d: DecodeBlock(0) returned %d rows and no error", count, b.Len())
		}
		if rows, _, err := drain(r.Cursor(Predicate{})); err == nil {
			t.Errorf("count %d: the cursor scanned %d rows (Len %d) and no error", count, len(rows), r.Len())
		}
	}
	r := readTrajectory(t, img)
	if rows, _, err := drain(r.Cursor(Predicate{})); err != nil || len(rows) != r.Len() {
		t.Fatalf("unpatched image: %d rows, Len %d, %v", len(rows), r.Len(), err)
	}
}

// TestDecodeSizesColumnsOnce pins the cost of the block-cache miss path
// (DecodeBlock decodes into a fresh batch): each of the eight columns is
// allocated once at its final size, not grown by doubling — which tripled the
// bytes a miss allocated and made the serving tail follow the collector.
func TestDecodeSizesColumnsOnce(t *testing.T) {
	const rows = 4096
	data := writeTrajectory(t, gridSamples(8, rows/8), Options{BlockSize: rows})
	r := readTrajectory(t, data)
	sc := newDecodeScratch()
	raw, err := r.blockBytes(0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var b TrajectoryBatch
		if err := decodeTrajectoryBatch(raw, rows, &b, &sc); err != nil || b.Len() != rows {
			t.Fatalf("decoded %d rows, %v", b.Len(), err)
		}
	}
	decode() // size the scratch's intermediates
	// One per column plus one per dictionary; two each under -race, where
	// slices.Grow makes a temporary. Grown by doubling it was 124.
	if allocs := testing.AllocsPerRun(20, decode); allocs > 20 {
		t.Errorf("decoding a %d-row block into a fresh batch: %.0f allocations, want one per column and dictionary (10)", rows, allocs)
	}
}

// TestCorruptCountReservesNothing: a row count larger than the payload is an
// error, and the columns are not pre-sized from it.
func TestCorruptCountReservesNothing(t *testing.T) {
	raw := binary.AppendUvarint(nil, 1<<40)
	var b TrajectoryBatch
	sc := newDecodeScratch()
	if err := decodeTrajectoryBatch(raw, 1<<40, &b, &sc); err == nil {
		t.Fatal("decoded a block whose row count exceeds its payload")
	}
	if cap(b.ObjID) != 0 || cap(b.Building.Code) != 0 {
		t.Errorf("corrupt count reserved %d/%d column slots", cap(b.ObjID), cap(b.Building.Code))
	}
	// A count the payload bound admits, with too few bytes behind it: each
	// column reserves at most what is left of the payload.
	raw = append(binary.AppendUvarint(nil, 3000), make([]byte, 3000)...)
	if err := decodeTrajectoryBatch(raw, 3000, &b, &sc); err == nil {
		t.Fatal("decoded 3000 rows out of 3000 bytes")
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
	preds["one instant"] = timeWindow(2.5, 2.5)

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
		inPlace.AppendRows(&whole, 0, whole.Len())
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
			b, err := tr.DecodeBlock(i)
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
