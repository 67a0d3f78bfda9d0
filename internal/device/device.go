// Package device models indoor positioning devices (Wi-Fi access points,
// Bluetooth beacons, RFID readers) and the two deployment models of paper
// §3.2: the coverage model (wall-adjacent, maximally separated — how access
// points are installed) and the check-point model (entrances and hotspots —
// how RFID readers are installed).
package device

import (
	"fmt"

	"vita/internal/geom"
)

// Type is the radio technology of a positioning device.
type Type int

// Device types supported by the toolkit (paper §1: "Wi-Fi, Bluetooth, RFID,
// etc.").
const (
	WiFi Type = iota
	Bluetooth
	RFID
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case WiFi:
		return "wifi"
	case Bluetooth:
		return "bluetooth"
	case RFID:
		return "rfid"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType parses a device type name.
func ParseType(s string) (Type, error) {
	switch s {
	case "wifi", "wi-fi", "WiFi":
		return WiFi, nil
	case "bluetooth", "bt", "ble":
		return Bluetooth, nil
	case "rfid", "RFID":
		return RFID, nil
	default:
		return 0, fmt.Errorf("device: unknown type %q", s)
	}
}

// Properties are the type-dependent radio properties of a device (paper §2:
// "type-dependent properties (e.g., the detection range of RFID readers)").
type Properties struct {
	// DetectionRange is the maximum distance (m) at which the device observes
	// an object.
	DetectionRange float64
	// SampleInterval is the seconds between two detection operations.
	SampleInterval float64
	// CalibrationA is the RSSI (dBm) measured at 1 m — the A term of the path
	// loss model.
	CalibrationA float64
	// PathLossExponent is the n term of the path loss model for this radio.
	PathLossExponent float64
}

// DefaultProperties returns the per-type defaults ("a default setting of
// these variables is provided for a quick customization", §3.2).
func DefaultProperties(t Type) Properties {
	switch t {
	case WiFi:
		return Properties{DetectionRange: 35, SampleInterval: 2, CalibrationA: -38, PathLossExponent: 2.2}
	case Bluetooth:
		return Properties{DetectionRange: 12, SampleInterval: 1, CalibrationA: -55, PathLossExponent: 2.0}
	case RFID:
		return Properties{DetectionRange: 3, SampleInterval: 0.5, CalibrationA: -60, PathLossExponent: 1.8}
	default:
		return Properties{DetectionRange: 10, SampleInterval: 2, CalibrationA: -50, PathLossExponent: 2.0}
	}
}

// Device is one deployed positioning device.
type Device struct {
	ID       string
	Type     Type
	Floor    int
	Position geom.Point
	Props    Properties
}

// InRange reports whether a point on the same floor is within detection
// range.
func (d *Device) InRange(p geom.Point) bool {
	return d.Position.Dist(p) <= d.Props.DetectionRange
}
