package ifc

import (
	"math"
	"strings"
	"testing"

	"vita/internal/model"
)

const tinyIFC = `ISO-10303-21;
HEADER;
FILE_DESCRIPTION(('test'),'2;1');
FILE_NAME('tiny.ifc','2016-09-05',(''),(''),'v','v','');
FILE_SCHEMA(('IFC2X3'));
ENDSEC;
DATA;
#1=IFCBUILDING('tiny','Tiny Building');
#2=IFCBUILDINGSTOREY('tiny-F0',#1,'Ground',0,0.,3.);
#10=IFCCARTESIANPOINT((0.,0.));
#11=IFCCARTESIANPOINT((10.,0.));
#12=IFCCARTESIANPOINT((10.,8.));
#13=IFCCARTESIANPOINT((0.,8.));
#20=IFCPOLYLINE((#10,#11,#12,#13));
#30=IFCSPACE('R1',#2,'Room One',#20);
#40=IFCCARTESIANPOINT((10.,4.));
#41=IFCDOOR('D1',#2,'Door One',#40,0.9);
ENDSEC;
END-ISO-10303-21;
`

func TestParseTiny(t *testing.T) {
	f, err := Parse(tinyIFC)
	if err != nil {
		t.Fatal(err)
	}
	if f.SchemaName != "IFC2X3" {
		t.Errorf("schema = %q", f.SchemaName)
	}
	if f.FileName != "tiny.ifc" {
		t.Errorf("file name = %q", f.FileName)
	}
	if len(f.Instances) != 10 {
		t.Errorf("instances = %d, want 10", len(f.Instances))
	}
	sp := f.ByType("IFCSPACE")
	if len(sp) != 1 || sp[0].ID != 30 {
		t.Fatalf("spaces = %+v", sp)
	}
	if sp[0].Args[0].Str != "R1" {
		t.Errorf("space guid = %q", sp[0].Args[0].Str)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"no header":       "ISO-10303-21;\nDATA;\nENDSEC;\n",
		"unterminated":    "ISO-10303-21;\nHEADER;\nFILE_NAME('x\n",
		"bad instance":    "ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#x=FOO();\nENDSEC;\n",
		"duplicate id":    strings.Replace(tinyIFC, "#11=IFCCARTESIANPOINT((10.,0.));", "#10=IFCCARTESIANPOINT((10.,0.));", 1),
		"missing endsec":  "ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#1=IFCBUILDING('a','b');\n",
		"garbage in data": "ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n???\nENDSEC;\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	src := strings.Replace(tinyIFC, "'Room One'", "'O''Brien''s Room'", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := f.ByType("IFCSPACE")[0]
	if got := sp.Args[2].Str; got != "O'Brien's Room" {
		t.Errorf("escaped string = %q", got)
	}
}

func TestExtractTiny(t *testing.T) {
	f, err := Parse(tinyIFC)
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 0 {
		t.Errorf("unexpected errors: %v", rep.Errors())
	}
	if b.ID != "tiny" || b.PartitionCount() != 1 || b.DoorCount() != 1 {
		t.Errorf("building = %s parts=%d doors=%d", b.ID, b.PartitionCount(), b.DoorCount())
	}
	fl, _ := b.Floor(0)
	p := fl.Partitions[0]
	if math.Abs(p.Polygon.Area()-80) > 1e-9 {
		t.Errorf("space area = %v", p.Polygon.Area())
	}
}

func TestExtractRepairsDuplicateVertices(t *testing.T) {
	src := strings.Replace(tinyIFC,
		"#20=IFCPOLYLINE((#10,#11,#12,#13));",
		"#20=IFCPOLYLINE((#10,#10,#11,#12,#13,#10));", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.PartitionCount() != 1 {
		t.Fatal("space lost during repair")
	}
	repaired := 0
	for _, is := range rep.Issues {
		if is.Repaired {
			repaired++
		}
	}
	if repaired == 0 {
		t.Errorf("no repairs recorded: %v", rep.Issues)
	}
	f0, _ := b.Floor(0)
	if got := len(f0.Partitions[0].Polygon); got != 4 {
		t.Errorf("repaired polygon has %d vertices, want 4", got)
	}
}

func TestExtractDropsOffBoundaryDoor(t *testing.T) {
	src := strings.Replace(tinyIFC,
		"#40=IFCCARTESIANPOINT((10.,4.));",
		"#40=IFCCARTESIANPOINT((50.,50.));", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.DoorCount() != 0 {
		t.Error("far-off door kept")
	}
	if len(rep.Errors()) == 0 {
		t.Error("no error recorded for dropped door")
	}
}

func TestExtractSnapsNearbyDoor(t *testing.T) {
	src := strings.Replace(tinyIFC,
		"#40=IFCCARTESIANPOINT((10.,4.));",
		"#40=IFCCARTESIANPOINT((10.8,4.));", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.DoorCount() != 1 {
		t.Fatal("snappable door dropped")
	}
	f0, _ := b.Floor(0)
	d := f0.Doors[0]
	if math.Abs(d.Position.X-10) > 1e-6 {
		t.Errorf("door not snapped: %v", d.Position)
	}
}

func TestExtractDropsSelfIntersectingSpace(t *testing.T) {
	src := strings.Replace(tinyIFC,
		"#20=IFCPOLYLINE((#10,#11,#12,#13));",
		"#20=IFCPOLYLINE((#10,#12,#11,#13));", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Extract(f); err == nil {
		t.Error("extraction with zero valid spaces should fail")
	}
}

func TestExtractDanglingRefs(t *testing.T) {
	src := strings.Replace(tinyIFC,
		"#30=IFCSPACE('R1',#2,'Room One',#20);",
		"#30=IFCSPACE('R1',#2,'Room One',#99);", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Extract(f); err == nil {
		t.Error("dangling polyline ref should kill the only space")
	}
}

func TestSyntheticBuildingsRoundTrip(t *testing.T) {
	builders := map[string]func() string{
		"office": OfficeIFC,
		"mall":   MallIFC,
		"clinic": ClinicIFC,
	}
	for name, gen := range builders {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			text := gen()
			f, err := Parse(text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			b, rep, err := Extract(f)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			if errs := rep.Errors(); len(errs) != 0 {
				t.Fatalf("synthetic %s has DBI errors: %v", name, errs)
			}
			// Write→parse→extract must preserve entity counts and total area.
			text2 := Write(b)
			f2, err := Parse(text2)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			b2, _, err := Extract(f2)
			if err != nil {
				t.Fatalf("re-extract: %v", err)
			}
			if b.PartitionCount() != b2.PartitionCount() || b.DoorCount() != b2.DoorCount() ||
				len(b.Staircases) != len(b2.Staircases) {
				t.Errorf("round trip changed counts: %d/%d doors %d/%d stairs %d/%d",
					b.PartitionCount(), b2.PartitionCount(), b.DoorCount(), b2.DoorCount(),
					len(b.Staircases), len(b2.Staircases))
			}
			area1, area2 := totalArea(b), totalArea(b2)
			if math.Abs(area1-area2) > 1e-6*(1+area1) {
				t.Errorf("round trip changed area: %v vs %v", area1, area2)
			}
		})
	}
}

func totalArea(b *model.Building) float64 {
	var total float64
	for _, f := range b.Floors {
		for _, p := range f.Partitions {
			total += p.Polygon.Area()
		}
	}
	return total
}
