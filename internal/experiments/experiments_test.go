package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vita/internal/rng"
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

// TestE5MethodOrderAndNoise pins E5's claims at seeds 1, 7 and 42: at every
// σ the mean error orders fingerprint < trilateration < proximity;
// fingerprinting's mean error does not fall as σ rises; and proximity, which
// reads only when a device heard an object and never the RSSI value, gives
// the same row at every σ. Measured mean errors at σ 1 → 8: fingerprint
// 1.99 → 2.67, 2.30 → 2.77, 2.08 → 2.73 m; trilateration 13.13 → 12.83,
// 10.70 → 11.05, 10.39 → 10.87 m; proximity 16.82, 17.36, 16.31 m.
func TestE5MethodOrderAndNoise(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		tbl, err := E5Accuracy(seed)
		if err != nil {
			t.Fatal(err)
		}
		methods := []string{"trilateration", "fingerprint", "proximity"}
		if len(tbl.Rows)%len(methods) != 0 {
			t.Fatalf("seed %d: %d rows, want whole groups of %d methods", seed, len(tbl.Rows), len(methods))
		}
		prevFP := math.Inf(-1)
		var proximity []string // the first σ's proximity row, σ left out
		for g := 0; g < len(tbl.Rows); g += len(methods) {
			mean := map[string]float64{}
			for i, m := range methods {
				row := tbl.Rows[g+i]
				if row[0] != m {
					t.Fatalf("seed %d: row %d is %q, want %q", seed, g+i, row[0], m)
				}
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					t.Fatalf("seed %d: unparsable mean error in row %q", seed, row)
				}
				mean[m] = v
			}
			sigma := tbl.Rows[g][1]
			if !(mean["fingerprint"] < mean["trilateration"] && mean["trilateration"] < mean["proximity"]) {
				t.Errorf("seed %d σ %s: mean errors fingerprint %.2f, trilateration %.2f, proximity %.2f; want them in increasing order",
					seed, sigma, mean["fingerprint"], mean["trilateration"], mean["proximity"])
			}
			if mean["fingerprint"] < prevFP {
				t.Errorf("seed %d σ %s: fingerprint mean error fell to %.2f from %.2f", seed, sigma, mean["fingerprint"], prevFP)
			}
			prevFP = mean["fingerprint"]
			prox := append([]string{tbl.Rows[g+2][0]}, tbl.Rows[g+2][2:]...)
			if proximity == nil {
				proximity = prox
			} else if !slices.Equal(prox, proximity) {
				t.Errorf("seed %d σ %s: proximity row %q differs from σ %s's %q", seed, sigma, prox, tbl.Rows[2][1], proximity)
			}
		}
	}
}

// TestE6EveryODPairRoutes pins §3.1's routing claim: in the mall, every pair
// of distinct partitions E6 draws routes under both schemas. E6 fails on the
// first pair that does not route, naming it; the test also redraws the pairs
// and requires the table to count every distinct one, so no pair can drop
// out silently. Measured: 59, 59 and 57 of 60 draws are distinct at seeds 1,
// 7 and 42, and all of them route.
func TestE6EveryODPairRoutes(t *testing.T) {
	topology, err := mallTopology()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		tbl, err := E6Routing(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, distinct := rng.New(seed), 0
		for range e6Draws {
			if _, _, ok := randomODPair(topology, r); ok {
				distinct++
			}
		}
		for _, row := range tbl.Rows {
			if row[1] != strconv.Itoa(distinct) {
				t.Errorf("seed %d: %s routed %s pairs, %d distinct pairs were drawn", seed, row[0], row[1], distinct)
			}
		}
	}
}

// TestE7StaircasesLinkAndCountsPinned pins §4.1's DBI claims on the three
// synthetic buildings: every staircase links across its floors, extraction
// reports no issue (so none is left to repair), and decomposition yields today's partition and door
// counts.
func TestE7StaircasesLinkAndCountsPinned(t *testing.T) {
	tbl, err := E7DBIProcessing(42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{ // partitions after, doors
		"office": {"28", "26"},
		"mall":   {"50", "50"},
		"clinic": {"14", "14"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d buildings, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		name := row[0]
		counts, ok := want[name]
		if !ok {
			t.Errorf("unexpected building %q", name)
			continue
		}
		if got := [2]string{row[3], row[4]}; got != counts {
			t.Errorf("%s: %s partitions and %s doors, want %s and %s", name, got[0], got[1], counts[0], counts[1])
		}
		linked, total, found := strings.Cut(row[5], "/")
		if !found || linked != total {
			t.Errorf("%s: staircases linked %q, want all", name, row[5])
		}
		if row[6] != "0" {
			t.Errorf("%s: loading reported %s DBI issues, want 0", name, row[6])
		}
	}
}

// TestA1ArmsEmitTheSameRows pins what A1 shows at seeds 1, 7 and 42: the
// obstacle model changes RSSI values, not which rows exist, so the
// line-of-sight and constant-penalty arms emit the same number of RSSI rows.
// Which arm fingerprints better flips with the seed, so that is not pinned.
func TestA1ArmsEmitTheSameRows(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		tbl, err := AblationLoS(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("seed %d: %d rows, want 2", seed, len(tbl.Rows))
		}
		los, constant := tbl.Rows[0][1], tbl.Rows[1][1]
		if los != constant || los == "0" {
			t.Errorf("seed %d: %s RSSI rows with line of sight, %s with a constant penalty; want the same, nonzero", seed, los, constant)
		}
	}
}
