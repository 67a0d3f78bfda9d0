package trajectory

import (
	"cmp"
	"math"
	"slices"
)

// mergeBatch is the most samples Merge hands its emit function in one call.
// It is a fraction of a VTB block: large enough that a sink's lock is taken
// once per hundreds of rows.
const mergeBatch = 512

// Merge emits the samples of series, a run's slots each in time order, as
// one stream in global time order with ties broken by ascending slot (that
// is, object ID) and, inside one slot, by position: exactly
// slices.Concat(series...) stable-sorted by T.
//
// It sweeps the slots once. Slots are admitted in order of their first
// sample and kept in slot order while they have samples left; at each
// instant, every admitted slot's samples at that instant are emitted. The
// generator samples every object on one k·interval grid, so each instant
// finds a sample in nearly every admitted slot.
//
// emit receives runs of at most mergeBatch samples and must not keep the
// slice. Merge stops at emit's first error and returns it.
func Merge(series [][]Sample, emit func([]Sample) error) error {
	pending := make([]int, 0, len(series))
	for i, ser := range series {
		if len(ser) > 0 {
			pending = append(pending, i)
		}
	}
	slices.SortFunc(pending, func(a, b int) int { return cmp.Compare(series[a][0].T, series[b][0].T) })

	type cursor struct{ slot, pos int }
	var active []cursor // ascending slot
	batch := make([]Sample, 0, mergeBatch)
	head := math.Inf(1) // the earliest next sample of the active slots
	for len(active) > 0 || len(pending) > 0 {
		t := head
		if len(pending) > 0 {
			t = min(t, series[pending[0]][0].T)
		}
		// The comparisons read !(x > t), which is x == t for every x a
		// sorted slot can hold at this point, so that a NaN cannot stall
		// the sweep.
		for len(pending) > 0 && !(series[pending[0]][0].T > t) {
			slot := pending[0]
			pending = pending[1:]
			at, _ := slices.BinarySearchFunc(active, slot, func(c cursor, slot int) int { return cmp.Compare(c.slot, slot) })
			active = slices.Insert(active, at, cursor{slot: slot})
		}
		head = math.Inf(1)
		kept := active[:0]
		for _, c := range active {
			ser := series[c.slot]
			for ; c.pos < len(ser) && !(ser[c.pos].T > t); c.pos++ {
				batch = append(batch, ser[c.pos])
				if len(batch) == mergeBatch {
					if err := emit(batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
			if c.pos < len(ser) {
				head = min(head, ser[c.pos].T)
				kept = append(kept, c)
			}
		}
		active = kept
	}
	if len(batch) > 0 {
		return emit(batch)
	}
	return nil
}
