package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"vita/internal/rssi"
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

// TestE3GapMatchesWallLoss pins the Figure 3(a) reproduction: at equal
// transmission distance, the line-of-sight probe's mean RSSI exceeds the
// wall-blocked probe's by the model's wall loss times the difference in
// walls crossed, to within noise. The mean of 2000 draws of σ = 2 dB noise
// per probe leaves the gap a standard deviation of about 0.06 dB. Measured
// gaps from the table's cells (2 walls, 12 dB expected): 11.95 dB at seed 1,
// 12.02 at seed 7, 11.96 at seed 42 — at most 0.05 dB off. The band is 0.25
// dB, four standard deviations.
func TestE3GapMatchesWallLoss(t *testing.T) {
	const band = 0.25
	wallLoss := rssi.DefaultPathLossModel().WallLoss
	for _, seed := range []uint64{1, 7, 42} {
		tbl, err := E3WallAttenuation(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
		}
		var walls, mean [2]float64
		for i, row := range tbl.Rows {
			var err1, err2 error
			walls[i], err1 = strconv.ParseFloat(row[2], 64)
			mean[i], err2 = strconv.ParseFloat(row[3], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: unparsable cells in row %q", seed, row)
			}
		}
		gap, want := mean[0]-mean[1], wallLoss*(walls[1]-walls[0])
		if want <= 0 {
			t.Fatalf("seed %d: expected gap %.2f dB: the probes must differ in walls crossed, and walls must attenuate", seed, want)
		}
		if math.Abs(gap-want) > band {
			t.Errorf("seed %d: measured gap %.2f dB, want %.2f ± %.2f (wall loss %g × %g walls)",
				seed, gap, want, band, wallLoss, walls[1]-walls[0])
		}
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
