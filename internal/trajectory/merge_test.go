package trajectory

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"vita/internal/model"
)

func s(obj int, t float64) Sample { return Sample{ObjID: obj, T: t} }

// wantMerged is Merge's contract: the slots concatenated and stable-sorted
// by T.
func wantMerged(series [][]Sample) []Sample {
	want := slices.Concat(series...)
	slices.SortStableFunc(want, func(a, b Sample) int { return cmp.Compare(a.T, b.T) })
	return want
}

// mergeChecked runs Merge, failing on a batch that is empty or longer than
// mergeBatch.
func mergeChecked(t *testing.T, series [][]Sample) []Sample {
	t.Helper()
	var got []Sample
	if err := Merge(series, func(b []Sample) error {
		if len(b) == 0 || len(b) > mergeBatch {
			t.Errorf("batch of %d samples", len(b))
		}
		got = append(got, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMergeOrder: ties on time go to the lower slot, a slot's first sample
// may come after a later slot's, and empty slots among full ones contribute
// nothing.
func TestMergeOrder(t *testing.T) {
	series := [][]Sample{
		{s(1, 0), s(1, 10), s(1, 55)},
		nil, // died before its first sample instant
		{s(3, 0), s(3, 10), s(3, 20)},
		{s(4, 50), s(4, 60)},
		{},
	}
	want := []Sample{
		s(1, 0), s(3, 0), s(1, 10), s(3, 10), s(3, 20), s(4, 50), s(1, 55), s(4, 60),
	}
	if got := mergeChecked(t, series); !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestMergeEmptySlots: a run with no slots, or with only empty ones, merges
// to nothing and never calls emit; an empty slot beside full ones leaves
// their samples whole and in time order.
func TestMergeEmptySlots(t *testing.T) {
	for _, series := range [][][]Sample{nil, {}, {nil}, {nil, {}}} {
		calls := 0
		if err := Merge(series, func([]Sample) error { calls++; return nil }); err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Fatalf("%d empty slots: emit called %d times, want 0", len(series), calls)
		}
	}
	for _, series := range [][][]Sample{
		{{s(1, 0), s(1, 20)}, nil}, // the second object died before its first sample instant
		{nil, {s(2, 0), s(2, 20)}, {}},
	} {
		if got, want := mergeChecked(t, series), wantMerged(series); !slices.Equal(got, want) {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}

// randomSeries draws slots that exercise what Merge must not depend on:
// empty slots, first samples out of slot order, times off the k·interval
// grid, equal times across slots and inside one slot, and lengths around
// multiples of mergeBatch.
func randomSeries(r *rand.Rand) [][]Sample {
	lengths := []int{0, 1, 2, 7, mergeBatch - 1, mergeBatch, mergeBatch + 1, 2*mergeBatch - 1, 2 * mergeBatch, 2*mergeBatch + 1}
	series := make([][]Sample, r.IntN(9))
	for i := range series {
		if r.IntN(4) == 0 {
			continue // empty slot
		}
		n := r.IntN(20)
		if r.IntN(3) == 0 {
			n = lengths[r.IntN(len(lengths))]
		}
		// Quarter steps on a coarse grid make ties across slots common;
		// off-grid starts and steps make them rare.
		t := float64(r.IntN(12)) / 4
		if r.IntN(3) == 0 {
			t += r.Float64()
		}
		ser := make([]Sample, n)
		for k := range ser {
			// Floor tells same-time samples of a slot apart.
			ser[k] = Sample{ObjID: i + 1, T: t, Loc: model.Location{Floor: k}}
			switch r.IntN(6) {
			case 0: // equal time inside the slot
			case 1:
				t += r.Float64()
			default:
				t += 0.25 * float64(1+r.IntN(4))
			}
		}
		series[i] = ser
	}
	return series
}

// TestMergeMatchesStableSort is Merge's property test: on random slots, each
// sorted by time, its stream equals the slots concatenated and stable-sorted
// by time, in batches of 1 to mergeBatch samples.
func TestMergeMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(45, 1))
	for i := range 2000 {
		series := randomSeries(r)
		if got, want := mergeChecked(t, series), wantMerged(series); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d slots): merged %d samples, want %d in stable time order", i, len(series), len(got), len(want))
		}
	}
	// Totals around a batch boundary, in one slot and split over two.
	for _, n := range []int{mergeBatch - 1, mergeBatch, mergeBatch + 1, 2 * mergeBatch} {
		one := make([]Sample, n)
		for k := range one {
			one[k] = s(1+k%2, float64(k/2))
		}
		split := [][]Sample{nil, nil}
		for _, x := range one {
			split[x.ObjID-1] = append(split[x.ObjID-1], x)
		}
		for _, series := range [][][]Sample{{one}, split} {
			if got := mergeChecked(t, series); !slices.Equal(got, one) {
				t.Fatalf("%d samples in %d slots: merged stream differs", n, len(series))
			}
		}
	}
}

// TestMergeBatchesAndErrors: emit gets runs of at most mergeBatch samples;
// after its first error it is never called again, and Merge returns that
// error.
func TestMergeBatchesAndErrors(t *testing.T) {
	long := func(id int) []Sample {
		ss := make([]Sample, mergeBatch+100)
		for k := range ss {
			ss[k] = s(id, float64(k))
		}
		return ss
	}
	series := [][]Sample{long(1), long(2), long(3)}
	if got := mergeChecked(t, series); len(got) != 3*(mergeBatch+100) {
		t.Fatalf("merged %d samples, want %d", len(got), 3*(mergeBatch+100))
	}

	boom := errors.New("disk full")
	for failAt := 1; failAt <= 3; failAt++ {
		calls := 0
		err := Merge(series, func([]Sample) error {
			calls++
			if calls == failAt {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("Merge returned %v, want the emit error", err)
		}
		if calls != failAt {
			t.Fatalf("emit called %d times, want %d (nothing after its error)", calls, failAt)
		}
	}
}
