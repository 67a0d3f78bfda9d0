package ifc

import (
	"fmt"
	"strings"

	"vita/internal/geom"
	"vita/internal/model"
)

// Write serializes a model.Building into the STEP subset understood by Parse.
// Round-tripping Write→Parse→Extract reproduces the building (up to staircase
// link resolution, which is recomputed by internal/topo).
func Write(b *model.Building) string {
	w := &writer{sb: &strings.Builder{}, nextID: 1}
	w.header(b)
	w.sb.WriteString("DATA;\n")

	bid := w.emit("IFCBUILDING('%s','%s')", escape(b.ID), escape(b.Name))
	storeyIDs := make([]int, len(b.Floors))
	for i, f := range b.Floors {
		storeyIDs[i] = w.emit("IFCBUILDINGSTOREY('%s',#%d,'%s',%d,%s,%s)",
			escape(fmt.Sprintf("%s-F%d", b.ID, f.Level)), bid, escape(f.Name),
			f.Level, num(f.Elevation), num(f.Height))
	}
	for i, f := range b.Floors {
		st := storeyIDs[i]
		for _, p := range f.Partitions {
			pl := w.polyline(p.Polygon)
			w.emit("IFCSPACE('%s',#%d,'%s',#%d)", escape(p.ID), st, escape(p.Name), pl)
		}
		for _, d := range f.Doors {
			pt := w.point2(d.Position)
			w.emit("IFCDOOR('%s',#%d,'%s',#%d,%s)", escape(d.ID), st, escape(d.Name), pt, num(d.Width))
		}
		for _, o := range f.Obstacles {
			pl := w.polyline(o.Polygon)
			w.emit("IFCWALL('%s',#%d,#%d)", escape(o.ID), st, pl)
		}
	}
	for _, s := range b.Staircases {
		refs := make([]string, len(s.Points))
		for i, p := range s.Points {
			refs[i] = fmt.Sprintf("#%d", w.point3(p))
		}
		w.emit("IFCSTAIR('%s','%s',(%s),%s)", escape(s.ID), escape(s.Name),
			strings.Join(refs, ","), num(s.TravelTime))
	}
	w.sb.WriteString("ENDSEC;\nEND-ISO-10303-21;\n")
	return w.sb.String()
}

type writer struct {
	sb     *strings.Builder
	nextID int
}

func (w *writer) header(b *model.Building) {
	fmt.Fprintf(w.sb, "ISO-10303-21;\nHEADER;\n")
	fmt.Fprintf(w.sb, "FILE_DESCRIPTION(('Vita synthetic DBI'),'2;1');\n")
	fmt.Fprintf(w.sb, "FILE_NAME('%s.ifc','2016-09-05',(''),(''),'vita','vita','');\n", escape(b.ID))
	fmt.Fprintf(w.sb, "FILE_SCHEMA(('IFC2X3'));\nENDSEC;\n")
}

func (w *writer) emit(format string, args ...interface{}) int {
	id := w.nextID
	w.nextID++
	fmt.Fprintf(w.sb, "#%d=", id)
	fmt.Fprintf(w.sb, format, args...)
	w.sb.WriteString(";\n")
	return id
}

func (w *writer) point2(p geom.Point) int {
	return w.emit("IFCCARTESIANPOINT((%s,%s))", num(p.X), num(p.Y))
}

func (w *writer) point3(p geom.Point3) int {
	return w.emit("IFCCARTESIANPOINT((%s,%s,%s))", num(p.X), num(p.Y), num(p.Z))
}

func (w *writer) polyline(pg geom.Polygon) int {
	refs := make([]string, len(pg))
	for i, p := range pg {
		refs[i] = fmt.Sprintf("#%d", w.point2(p))
	}
	return w.emit("IFCPOLYLINE((%s))", strings.Join(refs, ","))
}

func num(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".eE") {
		s += "."
	}
	return s
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
