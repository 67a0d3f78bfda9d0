package ifc

import (
	"fmt"
	"math"

	"vita/internal/geom"
	"vita/internal/model"
)

// Severity grades a DBI issue found during extraction.
type Severity int

// Issue severities.
const (
	SevWarning Severity = iota
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Issue is one DBI data error identified through geometry calculations
// (paper §4.1), together with whether the repair pass fixed it.
type Issue struct {
	Severity Severity
	Entity   string
	Message  string
	Repaired bool
}

// String implements fmt.Stringer.
func (i Issue) String() string {
	state := "unrepaired"
	if i.Repaired {
		state = "repaired"
	}
	return fmt.Sprintf("[%s] %s: %s (%s)", i.Severity, i.Entity, i.Message, state)
}

// Report collects the issues of one extraction run.
type Report struct {
	Issues []Issue
}

func (r *Report) add(sev Severity, entity, msg string, repaired bool) {
	r.Issues = append(r.Issues, Issue{Severity: sev, Entity: entity, Message: msg, Repaired: repaired})
}

// Errors returns the unrepaired errors.
func (r *Report) Errors() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == SevError && !i.Repaired {
			out = append(out, i)
		}
	}
	return out
}

// Repair-pass constants.
const (
	// snapDoorDist is the maximum distance (m) over which an off-boundary
	// door is snapped to the nearest partition boundary. Doors farther than
	// this are dropped with an error.
	snapDoorDist = 2.0
	// defaultFloorHeight (m) is used when a storey omits its height.
	defaultFloorHeight = 3.0
)

// Extract converts a parsed STEP file into a model.Building, running the
// error-identification and repair pass of paper §4.1. The returned report
// lists every issue found; extraction succeeds as long as at least one valid
// storey with one valid space remains.
func Extract(f *File) (*model.Building, *Report, error) {
	rep := &Report{}
	ex := &extractor{f: f, rep: rep}
	b, err := ex.run()
	if err != nil {
		return nil, rep, err
	}
	return b, rep, nil
}

type extractor struct {
	f   *File
	rep *Report
}

func (ex *extractor) run() (*model.Building, error) {
	buildings := ex.f.ByType("IFCBUILDING")
	if len(buildings) == 0 {
		return nil, fmt.Errorf("ifc: no IFCBUILDING instance")
	}
	if len(buildings) > 1 {
		ex.rep.add(SevWarning, "IFCBUILDING", "multiple buildings; extracting the first", false)
	}
	bi := buildings[0]
	id := stringArg(bi.Args, 0, fmt.Sprintf("building-%d", bi.ID))
	name := stringArg(bi.Args, 1, id)
	b := model.NewBuilding(id, name)

	storeys := make(map[int]*model.Floor) // instance id → floor
	for _, st := range ex.f.ByType("IFCBUILDINGSTOREY") {
		// ('guid', #building, 'name', level, elevation[, height])
		level := int(numArg(st.Args, 3, 0))
		elev := numArg(st.Args, 4, float64(level)*defaultFloorHeight)
		height := numArg(st.Args, 5, defaultFloorHeight)
		fl := model.NewFloor(level, elev, height)
		fl.Name = stringArg(st.Args, 2, fmt.Sprintf("floor-%d", level))
		if err := b.AddFloor(fl); err != nil {
			ex.rep.add(SevError, entityName(st), err.Error(), false)
			continue
		}
		storeys[st.ID] = fl
	}
	if len(storeys) == 0 {
		return nil, fmt.Errorf("ifc: no valid IFCBUILDINGSTOREY instance")
	}

	spaceCount := 0
	for _, sp := range ex.f.ByType("IFCSPACE") {
		if ex.extractSpace(sp, storeys, b) {
			spaceCount++
		}
	}
	if spaceCount == 0 {
		return nil, fmt.Errorf("ifc: no valid IFCSPACE instance")
	}

	for _, d := range ex.f.ByType("IFCDOOR") {
		ex.extractDoor(d, storeys)
	}
	for _, s := range ex.f.ByType("IFCSTAIR") {
		ex.extractStair(s, b)
	}
	for _, w := range ex.f.ByType("IFCWALL") {
		ex.extractWall(w, storeys)
	}
	return b, nil
}

// extractSpace parses one IFCSPACE ('guid', #storey, 'name', #polyline) and
// reports whether a partition was added.
func (ex *extractor) extractSpace(sp *Instance, storeys map[int]*model.Floor, b *model.Building) bool {
	ent := entityName(sp)
	fl, ok := ex.storeyOf(sp, 1, storeys)
	if !ok {
		return false
	}
	poly, ok := ex.polylineOf(sp, 3)
	if !ok {
		return false
	}
	poly = ex.repairPolygon(ent, poly)
	if err := poly.Validate(); err != nil {
		ex.rep.add(SevError, ent, "invalid space polygon: "+err.Error(), false)
		return false
	}
	if poly.SelfIntersects() {
		ex.rep.add(SevError, ent, "self-intersecting space polygon; space dropped", false)
		return false
	}
	p := &model.Partition{
		ID:      stringArg(sp.Args, 0, fmt.Sprintf("space-%d", sp.ID)),
		Name:    stringArg(sp.Args, 2, ""),
		Floor:   fl.Level,
		Polygon: poly,
	}
	if err := fl.AddPartition(p); err != nil {
		ex.rep.add(SevError, ent, err.Error(), false)
		return false
	}
	return true
}

// repairPolygon removes consecutive duplicates and an explicit closing vertex,
// recording repairs.
func (ex *extractor) repairPolygon(ent string, poly geom.Polygon) geom.Polygon {
	if len(poly) > 1 && poly[0].Eq(poly[len(poly)-1]) {
		poly = poly[:len(poly)-1]
		ex.rep.add(SevWarning, ent, "polygon explicitly closed; closing vertex removed", true)
	}
	out := poly[:0:0]
	dups := 0
	for _, p := range poly {
		if len(out) > 0 && out[len(out)-1].Eq(p) {
			dups++
			continue
		}
		out = append(out, p)
	}
	if dups > 0 {
		ex.rep.add(SevWarning, ent, fmt.Sprintf("%d duplicate consecutive vertices removed", dups), true)
	}
	return out
}

// extractDoor parses one IFCDOOR ('guid', #storey, 'name', #point, width).
// Doors not on any partition boundary are snapped when close enough,
// otherwise dropped — the geometry-calculation error check of §4.1.
func (ex *extractor) extractDoor(d *Instance, storeys map[int]*model.Floor) {
	ent := entityName(d)
	fl, ok := ex.storeyOf(d, 1, storeys)
	if !ok {
		return
	}
	pt, ok := ex.pointOf(d, 3)
	if !ok {
		return
	}
	width := numArg(d.Args, 4, 0.9)
	if width <= 0 {
		ex.rep.add(SevWarning, ent, "non-positive door width; default 0.9m used", true)
		width = 0.9
	}

	// Find the nearest partition boundary.
	bestDist := math.Inf(1)
	var bestPt geom.Point
	for _, p := range fl.Partitions {
		c := p.Polygon.ClosestBoundaryPoint(pt)
		if dd := c.Dist(pt); dd < bestDist {
			bestDist, bestPt = dd, c
		}
	}
	if bestDist > 0.2 {
		if bestDist > snapDoorDist {
			ex.rep.add(SevError, ent,
				fmt.Sprintf("door %.2fm from any partition boundary; dropped", bestDist), false)
			return
		}
		ex.rep.add(SevWarning, ent,
			fmt.Sprintf("door %.2fm off boundary; snapped", bestDist), true)
		pt = bestPt
	}
	fl.Doors = append(fl.Doors, &model.Door{
		ID:       stringArg(d.Args, 0, fmt.Sprintf("door-%d", d.ID)),
		Name:     stringArg(d.Args, 2, ""),
		Floor:    fl.Level,
		Position: pt,
		Width:    width,
	})
}

// extractStair parses one IFCSTAIR ('guid', 'name', (#pt3...), travelTime).
// As in real IFC, the stair is just a bag of 3D points; connectivity is
// resolved later by topo.LinkStaircases.
func (ex *extractor) extractStair(s *Instance, b *model.Building) {
	ent := entityName(s)
	if len(s.Args) < 3 || s.Args[2].Kind != VList {
		ex.rep.add(SevError, ent, "stair without point list; dropped", false)
		return
	}
	var pts []geom.Point3
	for _, v := range s.Args[2].List {
		if v.Kind != VRef {
			continue
		}
		in, ok := ex.f.Get(v.Ref)
		if !ok || in.Type != "IFCCARTESIANPOINT" {
			ex.rep.add(SevError, ent, fmt.Sprintf("dangling point ref #%d", v.Ref), false)
			continue
		}
		coords := listNums(in.Args, 0)
		if len(coords) < 3 {
			ex.rep.add(SevWarning, ent, "stair point without Z; assumed 0", true)
			coords = append(coords, 0)
		}
		pts = append(pts, geom.Pt3(coords[0], coords[1], coords[2]))
	}
	if len(pts) < 2 {
		ex.rep.add(SevError, ent, "stair with fewer than 2 valid points; dropped", false)
		return
	}
	b.Staircases = append(b.Staircases, &model.Staircase{
		ID:         stringArg(s.Args, 0, fmt.Sprintf("stair-%d", s.ID)),
		Name:       stringArg(s.Args, 1, ""),
		Points:     pts,
		TravelTime: numArg(s.Args, 3, 20),
	})
}

// extractWall parses one IFCWALL ('guid', #storey, #polyline) into an
// obstacle polygon.
func (ex *extractor) extractWall(w *Instance, storeys map[int]*model.Floor) {
	ent := entityName(w)
	fl, ok := ex.storeyOf(w, 1, storeys)
	if !ok {
		return
	}
	poly, ok := ex.polylineOf(w, 2)
	if !ok {
		return
	}
	poly = ex.repairPolygon(ent, poly)
	if err := poly.Validate(); err != nil {
		ex.rep.add(SevError, ent, "invalid wall polygon: "+err.Error(), false)
		return
	}
	fl.Obstacles = append(fl.Obstacles, &model.Obstacle{
		ID:      stringArg(w.Args, 0, fmt.Sprintf("wall-%d", w.ID)),
		Floor:   fl.Level,
		Polygon: poly,
	})
}

// --- reference helpers ---

func (ex *extractor) storeyOf(in *Instance, argIdx int, storeys map[int]*model.Floor) (*model.Floor, bool) {
	if len(in.Args) <= argIdx || in.Args[argIdx].Kind != VRef {
		ex.rep.add(SevError, entityName(in), "missing storey reference; dropped", false)
		return nil, false
	}
	fl, ok := storeys[in.Args[argIdx].Ref]
	if !ok {
		ex.rep.add(SevError, entityName(in),
			fmt.Sprintf("dangling storey ref #%d; dropped", in.Args[argIdx].Ref), false)
		return nil, false
	}
	return fl, true
}

func (ex *extractor) polylineOf(in *Instance, argIdx int) (geom.Polygon, bool) {
	ent := entityName(in)
	if len(in.Args) <= argIdx || in.Args[argIdx].Kind != VRef {
		ex.rep.add(SevError, ent, "missing polyline reference; dropped", false)
		return nil, false
	}
	pl, ok := ex.f.Get(in.Args[argIdx].Ref)
	if !ok || pl.Type != "IFCPOLYLINE" {
		ex.rep.add(SevError, ent, fmt.Sprintf("dangling polyline ref #%d; dropped", in.Args[argIdx].Ref), false)
		return nil, false
	}
	if len(pl.Args) == 0 || pl.Args[0].Kind != VList {
		ex.rep.add(SevError, ent, "polyline without point list; dropped", false)
		return nil, false
	}
	var poly geom.Polygon
	for _, v := range pl.Args[0].List {
		if v.Kind != VRef {
			continue
		}
		ptIn, ok := ex.f.Get(v.Ref)
		if !ok || ptIn.Type != "IFCCARTESIANPOINT" {
			ex.rep.add(SevError, ent, fmt.Sprintf("dangling point ref #%d", v.Ref), false)
			continue
		}
		coords := listNums(ptIn.Args, 0)
		if len(coords) < 2 {
			ex.rep.add(SevError, ent, "point with fewer than 2 coordinates", false)
			continue
		}
		poly = append(poly, geom.Pt(coords[0], coords[1]))
	}
	return poly, true
}

func (ex *extractor) pointOf(in *Instance, argIdx int) (geom.Point, bool) {
	ent := entityName(in)
	if len(in.Args) <= argIdx || in.Args[argIdx].Kind != VRef {
		ex.rep.add(SevError, ent, "missing point reference; dropped", false)
		return geom.Point{}, false
	}
	ptIn, ok := ex.f.Get(in.Args[argIdx].Ref)
	if !ok || ptIn.Type != "IFCCARTESIANPOINT" {
		ex.rep.add(SevError, ent, fmt.Sprintf("dangling point ref #%d; dropped", in.Args[argIdx].Ref), false)
		return geom.Point{}, false
	}
	coords := listNums(ptIn.Args, 0)
	if len(coords) < 2 {
		ex.rep.add(SevError, ent, "point with fewer than 2 coordinates; dropped", false)
		return geom.Point{}, false
	}
	return geom.Pt(coords[0], coords[1]), true
}

// --- argument helpers ---

func entityName(in *Instance) string {
	return fmt.Sprintf("%s#%d", in.Type, in.ID)
}

func stringArg(args []Value, i int, def string) string {
	if i < len(args) && args[i].Kind == VString && args[i].Str != "" {
		return args[i].Str
	}
	return def
}

func numArg(args []Value, i int, def float64) float64 {
	if i < len(args) && args[i].Kind == VNumber {
		return args[i].Num
	}
	return def
}

// listNums extracts the numbers of a nested list argument, e.g. the
// coordinate list of IFCCARTESIANPOINT((x, y[, z])).
func listNums(args []Value, i int) []float64 {
	if i >= len(args) || args[i].Kind != VList {
		return nil
	}
	var out []float64
	for _, v := range args[i].List {
		if v.Kind == VNumber {
			out = append(out, v.Num)
		}
	}
	return out
}
