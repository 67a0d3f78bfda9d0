package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment and ablation end to end;
// each returns a non-empty, well-formed table. This is the integration net
// that keeps cmd/vitabench's tables reproducible.
func TestAllExperimentsRun(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl, err := exp.Run(42)
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", exp.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("%s row %d has %d cells, header has %d", exp.ID, i, len(row), len(tbl.Header))
				}
			}
			if !strings.Contains(tbl.String(), exp.ID) {
				t.Errorf("%s table does not render its ID", exp.ID)
			}
		})
	}
}

// TestE3GapMatchesWallLoss pins the Figure 3(a) reproduction: the measured
// RSSI gap must be within 1 dB of wallLoss × wall-count difference.
func TestE3GapMatchesWallLoss(t *testing.T) {
	tbl, err := E3WallAttenuation(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	los, err1 := strconv.ParseFloat(tbl.Rows[0][3], 64)
	nlos, err2 := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable RSSI cells: %v %v", tbl.Rows[0][3], tbl.Rows[1][3])
	}
	if los <= nlos {
		t.Errorf("line-of-sight RSSI %.2f should exceed wall-blocked %.2f", los, nlos)
	}
}

// TestE4ErrorGrowsWithPeriod pins the sampling-fidelity shape: coarser
// sampling must not reduce reconstruction error.
func TestE4ErrorGrowsWithPeriod(t *testing.T) {
	tbl, err := E4SamplingSweep(7)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, row := range tbl.Rows {
		mean, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparsable error cell %q", row[2])
		}
		if mean < prev-0.05 { // small tolerance for noise
			t.Errorf("reconstruction error decreased with coarser sampling: %.3f after %.3f", mean, prev)
		}
		prev = mean
	}
}
