package ifc

import (
	"fmt"

	"vita/internal/geom"
	"vita/internal/model"
)

// This file provides the synthetic DBI generators that stand in for the real
// clinic/mall/office IFC files used in the paper's demonstration (§5 step 1).
// Each generator builds a model.Building whose IFC text (via Write) feeds the
// normal Parse→Extract path, so the pipeline is always exercised through
// real file parsing: the paper's IFC files are not redistributable, the
// generators are.

// OfficeSpec parameterizes the synthetic office building, modeled on the
// two-floor floor plans of Figure 3: rooms on both sides of a central
// hallway, a staircase connecting the floors, and a canteen on the ground
// floor.
type OfficeSpec struct {
	Floors       int     // number of storeys, >= 1
	RoomsPerSide int     // rooms along each side of the hallway
	RoomWidth    float64 // meters along the hallway
	RoomDepth    float64 // meters away from the hallway
	HallwayWidth float64
	FloorHeight  float64
}

// DefaultOfficeSpec returns the two-floor office used across examples and
// benchmarks.
func DefaultOfficeSpec() OfficeSpec {
	return OfficeSpec{
		Floors:       2,
		RoomsPerSide: 5,
		RoomWidth:    8,
		RoomDepth:    8,
		HallwayWidth: 4,
		FloorHeight:  3.5,
	}
}

// Office builds the synthetic office building.
func Office(spec OfficeSpec) *model.Building {
	if spec.Floors < 1 {
		spec.Floors = 1
	}
	if spec.RoomsPerSide < 1 {
		spec.RoomsPerSide = 1
	}
	b := model.NewBuilding("office", "Synthetic Office Building")
	width := float64(spec.RoomsPerSide) * spec.RoomWidth
	hallY0 := spec.RoomDepth
	hallY1 := spec.RoomDepth + spec.HallwayWidth

	for level := 0; level < spec.Floors; level++ {
		f := model.NewFloor(level, float64(level)*spec.FloorHeight, spec.FloorHeight)
		f.Name = fmt.Sprintf("Office Floor %d", level)
		mustAdd := func(p *model.Partition) {
			if err := f.AddPartition(p); err != nil {
				panic("ifc: synthetic office: " + err.Error())
			}
		}

		// Central hallway spanning the full width.
		hall := &model.Partition{
			ID:      fmt.Sprintf("F%d-HALL", level),
			Name:    fmt.Sprintf("Hallway %d", level),
			Floor:   level,
			Polygon: geom.Rect(0, hallY0, width, hallY1),
			Kind:    model.KindHallway,
		}
		mustAdd(hall)

		for i := 0; i < spec.RoomsPerSide; i++ {
			x0 := float64(i) * spec.RoomWidth
			x1 := x0 + spec.RoomWidth
			// South rooms (below the hallway).
			south := &model.Partition{
				ID:      fmt.Sprintf("F%d-S%d", level, i),
				Name:    fmt.Sprintf("Office %d%02d", level, i),
				Floor:   level,
				Polygon: geom.Rect(x0, 0, x1, hallY0),
			}
			// Ground-floor room S0 is the canteen (exercises the semantic
			// rules of §4.1).
			if level == 0 && i == 0 {
				south.Name = "Canteen"
			}
			mustAdd(south)
			f.Doors = append(f.Doors, &model.Door{
				ID:       fmt.Sprintf("F%d-DS%d", level, i),
				Name:     fmt.Sprintf("Door S%d", i),
				Floor:    level,
				Position: geom.Pt(x0+spec.RoomWidth/2, hallY0),
				Width:    1.0,
			})
			// North rooms (above the hallway).
			north := &model.Partition{
				ID:      fmt.Sprintf("F%d-N%d", level, i),
				Name:    fmt.Sprintf("Office %d%02d", level, spec.RoomsPerSide+i),
				Floor:   level,
				Polygon: geom.Rect(x0, hallY1, x1, hallY1+spec.RoomDepth),
			}
			mustAdd(north)
			f.Doors = append(f.Doors, &model.Door{
				ID:       fmt.Sprintf("F%d-DN%d", level, i),
				Name:     fmt.Sprintf("Door N%d", i),
				Floor:    level,
				Position: geom.Pt(x0+spec.RoomWidth/2, hallY1),
				Width:    1.0,
			})
		}
		if err := b.AddFloor(f); err != nil {
			panic("ifc: synthetic office: " + err.Error())
		}
	}

	// One staircase per floor gap, at the east end of the hallway. As in real
	// IFC the stair is only a bag of 3D points; topo.LinkStaircases resolves
	// connectivity.
	for level := 0; level+1 < spec.Floors; level++ {
		zLo := float64(level) * spec.FloorHeight
		zHi := float64(level+1) * spec.FloorHeight
		x := width - 1.5
		yMid := (hallY0 + hallY1) / 2
		b.Staircases = append(b.Staircases, &model.Staircase{
			ID:   fmt.Sprintf("ST-%d-%d", level, level+1),
			Name: fmt.Sprintf("Staircase %d-%d", level, level+1),
			Points: []geom.Point3{
				geom.Pt3(x-1, yMid-1, zLo), geom.Pt3(x+1, yMid-1, zLo),
				geom.Pt3(x-1, yMid+1, zLo), geom.Pt3(x+1, yMid+1, zLo),
				geom.Pt3(x-1, yMid-1, zHi), geom.Pt3(x+1, yMid-1, zHi),
				geom.Pt3(x-1, yMid+1, zHi), geom.Pt3(x+1, yMid+1, zHi),
			},
			TravelTime: 15,
		})
	}
	return b
}

// MallSpec parameterizes the synthetic shopping mall: two floors of shops
// around a central atrium and cross corridors; some shops are "on sale" and
// serve as the crowd hot areas of the crowd-outliers distribution (§3.1).
type MallSpec struct {
	Floors        int
	ShopsPerSide  int
	ShopWidth     float64
	ShopDepth     float64
	CorridorWidth float64
	FloorHeight   float64
	OnSaleEvery   int // every k-th shop is named "... (on sale)"
}

// DefaultMallSpec returns the standard two-floor mall.
func DefaultMallSpec() MallSpec {
	return MallSpec{
		Floors:        2,
		ShopsPerSide:  8,
		ShopWidth:     10,
		ShopDepth:     12,
		CorridorWidth: 6,
		FloorHeight:   4.5,
		OnSaleEvery:   4,
	}
}

// Mall builds the synthetic mall.
func Mall(spec MallSpec) *model.Building {
	if spec.Floors < 1 {
		spec.Floors = 1
	}
	if spec.ShopsPerSide < 1 {
		spec.ShopsPerSide = 1
	}
	if spec.OnSaleEvery < 1 {
		spec.OnSaleEvery = 4
	}
	b := model.NewBuilding("mall", "Synthetic Shopping Mall")
	width := float64(spec.ShopsPerSide) * spec.ShopWidth
	corrY0 := spec.ShopDepth
	corrY1 := spec.ShopDepth + spec.CorridorWidth

	shopNo := 1
	for level := 0; level < spec.Floors; level++ {
		f := model.NewFloor(level, float64(level)*spec.FloorHeight, spec.FloorHeight)
		f.Name = fmt.Sprintf("Mall Level %d", level)
		mustAdd := func(p *model.Partition) {
			if err := f.AddPartition(p); err != nil {
				panic("ifc: synthetic mall: " + err.Error())
			}
		}

		corr := &model.Partition{
			ID:      fmt.Sprintf("F%d-CORR", level),
			Name:    fmt.Sprintf("Corridor %d", level),
			Floor:   level,
			Polygon: geom.Rect(0, corrY0, width, corrY1),
			Kind:    model.KindHallway,
		}
		mustAdd(corr)

		// Atrium above the corridor: a large irregular (L-shaped) public
		// space that exercises the irregular-partition decomposition of §4.1.
		atr := &model.Partition{
			ID:    fmt.Sprintf("F%d-ATRIUM", level),
			Name:  fmt.Sprintf("Atrium %d", level),
			Floor: level,
			Polygon: geom.Polygon{
				geom.Pt(0, corrY1), geom.Pt(width, corrY1),
				geom.Pt(width, corrY1+spec.ShopDepth),
				geom.Pt(width/2, corrY1+spec.ShopDepth),
				geom.Pt(width/2, corrY1+spec.ShopDepth/2),
				geom.Pt(0, corrY1+spec.ShopDepth/2),
			},
		}
		mustAdd(atr)
		f.Doors = append(f.Doors, &model.Door{
			ID:       fmt.Sprintf("F%d-DATR", level),
			Name:     "Atrium entrance",
			Floor:    level,
			Position: geom.Pt(width/4, corrY1),
			Width:    3.0,
		})
		f.Doors = append(f.Doors, &model.Door{
			ID:       fmt.Sprintf("F%d-DATR2", level),
			Name:     "Atrium entrance east",
			Floor:    level,
			Position: geom.Pt(3*width/4, corrY1),
			Width:    3.0,
		})

		for i := 0; i < spec.ShopsPerSide; i++ {
			x0 := float64(i) * spec.ShopWidth
			x1 := x0 + spec.ShopWidth
			name := fmt.Sprintf("Shop %d", shopNo)
			if shopNo%spec.OnSaleEvery == 0 {
				name += " (on sale)"
			}
			if level == 0 && i == spec.ShopsPerSide-1 {
				name = "Food Court Dining Room"
			}
			shop := &model.Partition{
				ID:      fmt.Sprintf("F%d-SHOP%d", level, i),
				Name:    name,
				Floor:   level,
				Polygon: geom.Rect(x0, 0, x1, corrY0),
			}
			mustAdd(shop)
			f.Doors = append(f.Doors, &model.Door{
				ID:       fmt.Sprintf("F%d-DSHOP%d", level, i),
				Name:     fmt.Sprintf("%s entrance", name),
				Floor:    level,
				Position: geom.Pt(x0+spec.ShopWidth/2, corrY0),
				Width:    2.0,
			})
			shopNo++
		}
		if err := b.AddFloor(f); err != nil {
			panic("ifc: synthetic mall: " + err.Error())
		}
	}

	for level := 0; level+1 < spec.Floors; level++ {
		zLo := float64(level) * spec.FloorHeight
		zHi := float64(level+1) * spec.FloorHeight
		x := width / 2
		y := (corrY0 + corrY1) / 2
		b.Staircases = append(b.Staircases, &model.Staircase{
			ID:   fmt.Sprintf("ESC-%d-%d", level, level+1),
			Name: fmt.Sprintf("Escalator %d-%d", level, level+1),
			Points: []geom.Point3{
				geom.Pt3(x-2, y-1, zLo), geom.Pt3(x+2, y-1, zLo),
				geom.Pt3(x-2, y+1, zLo), geom.Pt3(x+2, y+1, zLo),
				geom.Pt3(x-2, y-1, zHi), geom.Pt3(x+2, y-1, zHi),
				geom.Pt3(x-2, y+1, zHi), geom.Pt3(x+2, y+1, zHi),
			},
			TravelTime: 25,
		})
	}
	return b
}

// ClinicSpec parameterizes the synthetic clinic: a waiting hall, a corridor
// of consultation rooms, a pharmacy and a canteen on a single floor — the
// setting for RFID + proximity check-point tracking (§5 step 6).
type ClinicSpec struct {
	ConsultRooms int
	RoomWidth    float64
	RoomDepth    float64
	HallDepth    float64
	FloorHeight  float64
}

// DefaultClinicSpec returns the standard single-floor clinic.
func DefaultClinicSpec() ClinicSpec {
	return ClinicSpec{
		ConsultRooms: 6,
		RoomWidth:    5,
		RoomDepth:    6,
		HallDepth:    10,
		FloorHeight:  3.2,
	}
}

// Clinic builds the synthetic clinic.
func Clinic(spec ClinicSpec) *model.Building {
	if spec.ConsultRooms < 1 {
		spec.ConsultRooms = 1
	}
	b := model.NewBuilding("clinic", "Synthetic Clinic")
	width := float64(spec.ConsultRooms) * spec.RoomWidth
	corrW := 3.0
	corrY0 := spec.RoomDepth
	corrY1 := corrY0 + corrW

	f := model.NewFloor(0, 0, spec.FloorHeight)
	f.Name = "Clinic Ground Floor"
	mustAdd := func(p *model.Partition) {
		if err := f.AddPartition(p); err != nil {
			panic("ifc: synthetic clinic: " + err.Error())
		}
	}

	corr := &model.Partition{
		ID:      "F0-CORR",
		Name:    "Corridor",
		Floor:   0,
		Polygon: geom.Rect(0, corrY0, width, corrY1),
		Kind:    model.KindHallway,
	}
	mustAdd(corr)

	hall := &model.Partition{
		ID:      "F0-WAIT",
		Name:    "Waiting Hall",
		Floor:   0,
		Polygon: geom.Rect(0, corrY1, width, corrY1+spec.HallDepth),
	}
	mustAdd(hall)
	f.Doors = append(f.Doors,
		&model.Door{ID: "F0-DWAIT", Name: "Waiting hall door", Floor: 0,
			Position: geom.Pt(width/2, corrY1), Width: 2.5},
		&model.Door{ID: "F0-DMAIN", Name: "Main entrance", Floor: 0,
			Position: geom.Pt(width/2, corrY1+spec.HallDepth), Width: 3.0,
			Partitions: [2]string{"F0-WAIT", ""}},
	)

	for i := 0; i < spec.ConsultRooms; i++ {
		x0 := float64(i) * spec.RoomWidth
		x1 := x0 + spec.RoomWidth
		name := fmt.Sprintf("Consultation Room %d", i+1)
		if i == spec.ConsultRooms-1 {
			name = "Pharmacy"
		}
		if i == spec.ConsultRooms-2 && spec.ConsultRooms >= 2 {
			name = "Staff Canteen"
		}
		room := &model.Partition{
			ID:      fmt.Sprintf("F0-R%d", i),
			Name:    name,
			Floor:   0,
			Polygon: geom.Rect(x0, 0, x1, corrY0),
		}
		mustAdd(room)
		f.Doors = append(f.Doors, &model.Door{
			ID:       fmt.Sprintf("F0-DR%d", i),
			Name:     name + " door",
			Floor:    0,
			Position: geom.Pt(x0+spec.RoomWidth/2, corrY0),
			Width:    1.2,
		})
	}
	if err := b.AddFloor(f); err != nil {
		panic("ifc: synthetic clinic: " + err.Error())
	}
	return b
}

// OfficeIFC, MallIFC and ClinicIFC return ready-to-parse DBI file contents
// for the default specs.
func OfficeIFC() string { return Write(Office(DefaultOfficeSpec())) }

// MallIFC returns the default mall DBI file contents.
func MallIFC() string { return Write(Mall(DefaultMallSpec())) }

// ClinicIFC returns the default clinic DBI file contents.
func ClinicIFC() string { return Write(Clinic(DefaultClinicSpec())) }
