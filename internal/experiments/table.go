// Package experiments implements the reproduction experiments (E1-E10) and
// the ablations (A1, A3, A4). The paper is a demonstration and has
// no quantitative tables; each experiment here realizes one of its figures
// or behavioral claims as a measurable table. cmd/vitabench prints the
// tables; the root bench_test.go wraps each as a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result, printable as an aligned text table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes states the expected shape from the paper and how the measurement
	// relates to it.
	Notes string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(seed uint64) (*Table, error)
}

// All returns every experiment (E1-E10), then every ablation (A1, A3, A4).
func All() []Runner {
	return []Runner{
		{"E1", "pipeline end-to-end data flow", E1Pipeline},
		{"E2", "deployment models and initial distributions (Figure 3)", E2Deployment},
		{"E3", "RSSI wall attenuation (Figure 3a)", E3WallAttenuation},
		{"E4", "trajectory sampling-frequency sweep", E4SamplingSweep},
		{"E5", "positioning accuracy by method and noise", E5Accuracy},
		{"E6", "routing schemes: min-distance vs min-time", E6Routing},
		{"E7", "DBI processing and staircase linking", E7DBIProcessing},
		{"E8", "storage and data stream API queries", E8StorageQueries},
		{"E9", "Poisson arrival process", E9Arrivals},
		{"E10", "method-device combinations (demo step 6)", E10Combos},
		{"A1", "ablation: line-of-sight obstacle noise", AblationLoS},
		{"A3", "ablation: radio-map reference density", AblationRadioMapDensity},
		{"A4", "ablation: irregular-partition decomposition", AblationDecomposition},
	}
}
