package ifc

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"vita/internal/topo"
)

// TestQuickOfficeSpecsRoundTrip: any sane office spec produces a DBI file
// that parses, extracts with zero unrepaired errors, and preserves counts
// through a write/parse cycle.
func TestQuickOfficeSpecsRoundTrip(t *testing.T) {
	f := func(floors, rooms uint8) bool {
		spec := OfficeSpec{
			Floors:       1 + int(floors%4),
			RoomsPerSide: 1 + int(rooms%8),
			RoomWidth:    6,
			RoomDepth:    7,
			HallwayWidth: 3,
			FloorHeight:  3,
		}
		b := Office(spec)
		text := Write(b)
		parsed, err := Parse(text)
		if err != nil {
			return false
		}
		b2, rep, err := Extract(parsed)
		if err != nil || len(rep.Errors()) != 0 {
			return false
		}
		wantParts := spec.Floors * (2*spec.RoomsPerSide + 1)
		if b2.PartitionCount() != wantParts {
			return false
		}
		return len(b2.Staircases) == spec.Floors-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickOfficeTopologyBuilds: the derived topology builds and links every
// staircase for any sane spec.
func TestQuickOfficeTopologyBuilds(t *testing.T) {
	f := func(floors uint8) bool {
		spec := DefaultOfficeSpec()
		spec.Floors = 1 + int(floors%4)
		b := Office(spec)
		tp, err := topo.Build(b, topo.DefaultOptions())
		if err != nil {
			return false
		}
		for _, s := range tp.B.Staircases {
			if !s.Linked {
				return false
			}
		}
		nodes, edges := tp.GraphSize()
		return nodes > 0 && edges > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestMallSpecVariants: shop counts and floor counts scale the mall as
// configured.
func TestMallSpecVariants(t *testing.T) {
	for _, shops := range []int{1, 4, 12} {
		spec := DefaultMallSpec()
		spec.ShopsPerSide = shops
		spec.Floors = 1
		b := Mall(spec)
		// corridor + atrium + shops per floor
		if got := b.PartitionCount(); got != shops+2 {
			t.Errorf("shops=%d: partitions = %d, want %d", shops, got, shops+2)
		}
		if len(b.Staircases) != 0 {
			t.Errorf("single-floor mall has staircases")
		}
	}
	spec := DefaultMallSpec()
	spec.Floors = 3
	if b := Mall(spec); len(b.Staircases) != 2 {
		t.Errorf("3-floor mall staircases = %d, want 2", len(Mall(spec).Staircases))
	}
}

// TestClinicSpecVariants: consult rooms scale the clinic.
func TestClinicSpecVariants(t *testing.T) {
	for _, rooms := range []int{1, 3, 9} {
		spec := DefaultClinicSpec()
		spec.ConsultRooms = rooms
		b := Clinic(spec)
		// corridor + waiting hall + rooms
		if got := b.PartitionCount(); got != rooms+2 {
			t.Errorf("rooms=%d: partitions = %d, want %d", rooms, got, rooms+2)
		}
	}
}

// TestSyntheticSemantics: the semantic extractor finds the canteens the
// generators plant (paper §4.1's example rule).
func TestSyntheticSemantics(t *testing.T) {
	b := Office(DefaultOfficeSpec())
	tp, err := topo.Build(b, topo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range tp.B.Floors {
		for _, p := range f.Partitions {
			if p.Kind.String() == "canteen" {
				found = true
			}
		}
	}
	if !found {
		t.Error("canteen not identified by semantic rules")
	}
}

// TestWriterNumberFormat: coordinates survive Write→Parse with full
// precision (STEP requires a decimal point on reals; strconv accepts the
// trailing-dot form the writer emits once normalized).
func TestWriterNumberFormat(t *testing.T) {
	for _, v := range []float64{0, 1, -2.5, 1e-3, 12345.6789} {
		s := num(v)
		if len(s) > 0 && s[len(s)-1] == '.' {
			s += "0"
		}
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparsable number %q: %v", s, err)
		}
		if math.Abs(back-v) > 1e-12*(1+math.Abs(v)) {
			t.Errorf("num(%v) = %q round-trips to %v", v, s, back)
		}
	}
}
