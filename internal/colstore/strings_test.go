package colstore

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// rowsOf returns every row of s as a string.
func rowsOf(s *Strings) []string {
	out := make([]string, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// checkStrings requires s to hold exactly want and its dictionary never to
// repeat an entry.
func checkStrings(t *testing.T, what string, s *Strings, want []string) {
	t.Helper()
	if got := rowsOf(s); !slices.Equal(got, want) {
		t.Fatalf("%s: rows %q, want %q", what, got, want)
	}
	seen := map[string]bool{}
	for _, d := range s.Dict {
		if seen[d] {
			t.Fatalf("%s: dictionary %q repeats %q", what, s.Dict, d)
		}
		seen[d] = true
	}
}

func appended(vals ...string) *Strings {
	var s Strings
	for _, v := range vals {
		s.Append(v)
	}
	return &s
}

func TestStringsAppendRowsAcrossDictionaries(t *testing.T) {
	a := appended("x", "y", "x", "z")
	b := appended("z", "w", "x", "w") // shares x and z, adds w, in another order
	var dst Strings
	dst.AppendRows(a, 1, 4) // into an empty column: a's dictionary as it is
	if !slices.Equal(dst.Dict, a.Dict) || !slices.Equal(dst.Code, a.Code[1:4]) {
		t.Fatalf("empty destination: dict %q codes %v, want %q %v", dst.Dict, dst.Code, a.Dict, a.Code[1:4])
	}
	dst.AppendRows(b, 0, 4)
	dst.AppendRows(a, 0, 1)
	dst.AppendRows(b, 2, 2)
	checkStrings(t, "appended", &dst, []string{"y", "x", "z", "z", "w", "x", "w", "x"})
	if len(dst.Dict) != 4 {
		t.Errorf("dictionary %q, want the four distinct names", dst.Dict)
	}
	// Equal strings, equal codes: what Aggregate's run breaks rely on.
	for i := range dst.Code {
		for j := range dst.Code {
			if (dst.At(i) == dst.At(j)) != (dst.Code[i] == dst.Code[j]) {
				t.Fatalf("rows %d and %d: strings %q/%q, codes %d/%d", i, j, dst.At(i), dst.At(j), dst.Code[i], dst.Code[j])
			}
		}
	}
	// Remap names every source entry in the destination, adding what it lacks.
	table := dst.Remap(appended("v", "x", "w"), nil)
	for c, v := range []string{"v", "x", "w"} {
		if dst.Dict[table[c]] != v {
			t.Errorf("remap of %q points at %q", v, dst.Dict[table[c]])
		}
	}
	checkStrings(t, "after remap", &dst, []string{"y", "x", "z", "z", "w", "x", "w", "x"})
}

func TestStringsGather(t *testing.T) {
	src := appended("a", "b", "c", "b", "d")
	// In place, ascending: what a cursor's filter does to its own batch.
	inPlace := appended("a", "b", "c", "b", "d")
	inPlace.Gather(inPlace, []int32{1, 3, 4})
	checkStrings(t, "in place", inPlace, []string{"b", "b", "d"})
	// Across batches, any order, over a destination holding other names.
	dst := appended("q", "r")
	dst.Gather(src, []int32{4, 0, 4, 2})
	checkStrings(t, "across", dst, []string{"d", "a", "d", "c"})
	if !slices.Equal(dst.Dict, src.Dict) {
		t.Errorf("gathered dictionary %q, want a copy of %q", dst.Dict, src.Dict)
	}
	dst.Dict[0] = "changed"
	if src.At(0) != "a" {
		t.Error("Gather shares the source's dictionary instead of copying it")
	}
}

func TestStringsSetZeroTruncate(t *testing.T) {
	s := appended("a", "b", "a")
	s.Set(1, "c")
	s.Set(0, "b")
	checkStrings(t, "set", s, []string{"b", "c", "a"})
	if len(s.Dict) != 3 {
		t.Errorf("Set coded a name twice: dictionary %q", s.Dict)
	}
	// Truncation keeps the dictionary: a prefix view, and Reset.
	view := Strings{Code: s.Code[:2], Dict: s.Dict}
	checkStrings(t, "prefix view", &view, []string{"b", "c"})
	codeOfC := s.Code[1]
	s.Reset()
	if s.Len() != 0 || len(s.Dict) != 3 {
		t.Fatalf("Reset left %d rows and dictionary %q", s.Len(), s.Dict)
	}
	s.Append("c")
	if s.Code[0] != codeOfC {
		t.Errorf("after Reset, %q coded %d, want its old code %d", "c", s.Code[0], codeOfC)
	}
	s.Append("a")
	s.Zero()
	checkStrings(t, "zeroed", s, []string{"", ""})
	if !slices.Equal(s.Dict, []string{""}) {
		t.Errorf("zeroed dictionary %q, want {\"\"}", s.Dict)
	}
	s.Append("a")
	checkStrings(t, "append after zero", s, []string{"", "", "a"})
	if got, want := s.Bytes(), int64(3*4+2*16+len("a")); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

// TestStringsMatchesOracle drives random Append, Set, AppendRows, Gather,
// Zero and Reset calls against a plain []string and requires the column to
// read back the same rows, with a dictionary that never repeats, after each.
func TestStringsMatchesOracle(t *testing.T) {
	names := []string{"", "lobby", "F0-S1", "F0-N2", "corridor/θ", "shop-17"}
	r := rand.New(rand.NewPCG(38, 1))
	pick := func() string { return names[r.IntN(len(names))] }
	var s Strings
	var want []string
	for step := 0; step < 3000; step++ {
		switch op := r.IntN(10); {
		case op < 3:
			v := pick()
			s.Append(v)
			want = append(want, v)
		case op < 4 && len(want) > 0:
			i, v := r.IntN(len(want)), pick()
			s.Set(i, v)
			want[i] = v
		case op < 6:
			var src Strings
			var srcRows []string
			for range 1 + r.IntN(12) {
				v := pick()
				src.Append(v)
				srcRows = append(srcRows, v)
			}
			lo := r.IntN(len(srcRows))
			hi := lo + r.IntN(len(srcRows)-lo+1)
			s.AppendRows(&src, lo, hi)
			want = append(want, srcRows[lo:hi]...)
		case op < 7:
			var idx []int32
			var kept []string
			for i := range want {
				if r.IntN(3) > 0 {
					idx = append(idx, int32(i))
					kept = append(kept, want[i])
				}
			}
			s.Gather(&s, idx)
			want = kept
		case op < 8 && len(want) > 0:
			idx := make([]int32, r.IntN(2*len(want)))
			permuted := make([]string, len(idx))
			for k := range idx {
				idx[k] = int32(r.IntN(len(want)))
				permuted[k] = want[idx[k]]
			}
			var g Strings
			g.Gather(&s, idx)
			s, want = g, permuted
		case op < 9 && r.IntN(10) == 0:
			s.Zero()
			clear(want)
		case r.IntN(20) == 0:
			s.Reset()
			want = want[:0]
		}
		checkStrings(t, "step", &s, want)
	}
}

// TestDictColumnEncodesAsAppended: the encoder re-derives a block's
// dictionary from the codes, so a column whose Dict holds unused entries, in
// any order, writes exactly the bytes of the same strings appended one by
// one — the bytes every VTB file has always held.
func TestDictColumnEncodesAsAppended(t *testing.T) {
	rows := []string{"c", "a", "c", "", "b", "a"}
	dict := []string{"unused", "b", "", "a", "spare", "c"}
	messy := Strings{Dict: dict}
	for _, v := range rows {
		messy.Code = append(messy.Code, uint32(slices.Index(dict, v)))
	}
	var sc dictScratch
	want := appendDictColumn(nil, appended(rows...), &sc)
	for pass := 0; pass < 2; pass++ { // the scratch must come back clean
		if got := appendDictColumn(nil, &messy, &sc); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: messy dictionary encodes %x, appended %x", pass, got, want)
		}
	}
	var back Strings
	dsc := newDecodeScratch()
	c := &cursor{b: want}
	c.dictColumnInto(len(rows), &back, &dsc)
	if c.err != nil {
		t.Fatal(c.err)
	}
	checkStrings(t, "decoded", &back, rows)
	if !slices.Equal(back.Dict, []string{"c", "a", "", "b"}) {
		t.Errorf("decoded dictionary %q, want first-seen order", back.Dict)
	}
}

// TestBatchColumnsPointerFree: no per-row column of a batch holds a pointer,
// so the garbage collector never scans a decoded block row by row. A string
// column's Dict is exempt: it holds one entry per distinct name.
func TestBatchColumnsPointerFree(t *testing.T) {
	stringsType := reflect.TypeOf(Strings{})
	for _, batch := range []any{TrajectoryBatch{}, RSSIBatch{}} {
		typ := reflect.TypeOf(batch)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			col := f.Type
			if col == stringsType {
				code, _ := col.FieldByName("Code")
				col = code.Type
			}
			if col.Kind() != reflect.Slice || hasPointers(col.Elem()) {
				t.Errorf("%s.%s is %s, want a slice of pointer-free elements", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// rawImage writes b's columns, as they are, as a one-block trajectory image
// — a Dict that repeats an entry reaches the block, which no writer
// produces.
func rawImage(tb testing.TB, b *TrajectoryBatch) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, Options{})
	var sc dictScratch
	var ints []int64
	w.writeBlock(appendTrajectoryPayload(nil, b, &sc, &ints), ZoneMap{Count: b.Len()})
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// twoRows is a two-row batch whose building column codes "hq" with the given
// codes over dict.
func twoRows(dict []string, codes ...uint32) *TrajectoryBatch {
	return &TrajectoryBatch{
		ObjID:     []int64{1, 2},
		Building:  Strings{Dict: dict, Code: codes},
		Floor:     []int64{0, 0},
		Partition: Strings{Dict: []string{"lobby"}, Code: []uint32{0, 0}},
		X:         []float64{1, 2}, Y: []float64{3, 4}, T: []float64{5, 6},
		HasPoint: []bool{true, true},
	}
}

func TestRepeatedDictionaryEntryIsCorrupt(t *testing.T) {
	good := readTrajectory(t, rawImage(t, twoRows([]string{"hq"}, 0, 0)))
	if b, err := good.DecodeBlock(0); err != nil || b.Building.At(1) != "hq" {
		t.Fatalf("control block: %v", err)
	}
	bad := readTrajectory(t, rawImage(t, twoRows([]string{"hq", "hq"}, 0, 1)))
	if _, err := bad.DecodeBlock(0); err == nil {
		t.Error("DecodeBlock accepted a dictionary that repeats an entry")
	}
	if _, _, err := drain(bad.Cursor(Predicate{})); err == nil {
		t.Error("the cursor accepted a dictionary that repeats an entry")
	}
}
