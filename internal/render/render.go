// Package render draws ASCII floor plans — the CLI stand-in for the paper's
// GUI map view (Figure 4): partitions, doors, staircases, deployed devices
// and moving-object snapshots.
package render

import (
	"fmt"
	"strings"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// Options control rendering.
type Options struct {
	// Width is the character width of the canvas (height follows the floor
	// aspect ratio; terminal cells are ~2x taller than wide).
	Width int
}

// Floor renders one floor with optional devices and a trajectory snapshot.
func Floor(f *model.Floor, devs []*device.Device, snapshot []trajectory.Sample, opts Options) string {
	if opts.Width <= 0 {
		opts.Width = 80
	}
	bb := f.BBox()
	if bb.IsEmpty() {
		return "(empty floor)\n"
	}
	w := opts.Width
	h := int(float64(w) * bb.Height() / bb.Width() / 2)
	if h < 4 {
		h = 4
	}
	canvas := make([][]byte, h)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", w))
	}
	plot := func(p geom.Point, c byte) {
		x := int((p.X - bb.Min.X) / bb.Width() * float64(w-1))
		y := int((p.Y - bb.Min.Y) / bb.Height() * float64(h-1))
		y = h - 1 - y // screen y grows downward
		if x >= 0 && x < w && y >= 0 && y < h {
			canvas[y][x] = c
		}
	}

	// Partition boundaries.
	for _, p := range f.Partitions {
		for _, e := range p.Polygon.Edges() {
			steps := int(e.Length()*2) + 1
			for i := 0; i <= steps; i++ {
				plot(e.At(float64(i)/float64(steps)), '#')
			}
		}
	}
	// Doors.
	for _, d := range f.Doors {
		if d.Virtual() {
			continue
		}
		plot(d.Position, '+')
	}
	// Devices.
	for _, dv := range devs {
		if dv.Floor != f.Level {
			continue
		}
		plot(dv.Position, 'D')
	}
	// Objects.
	for _, s := range snapshot {
		if s.Loc.Floor == f.Level {
			plot(s.Loc.Point, 'o')
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Floor %d (%s): %d partitions, %d doors  [#=wall +=door D=device o=object]\n",
		f.Level, f.Name, len(f.Partitions), len(f.Doors))
	for _, row := range canvas {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Building renders every floor of a building in level order.
func Building(b *model.Building, devs []*device.Device, snapshot []trajectory.Sample, opts Options) string {
	var sb strings.Builder
	for _, f := range b.Floors {
		sb.WriteString(Floor(f, devs, snapshot, opts))
		sb.WriteByte('\n')
	}
	return sb.String()
}
