// Package plan is Vita's vectorized query-operator algebra: a volcano-style
// iterator layer where every operator consumes and yields column batches
// (colstore.TrajectoryBatch, optionally extended with one derived float
// column), so arbitrary analytics compose from a small operator vocabulary
// instead of being hand-coded endpoints.
//
// The operators are the classical relational set specialized to trajectory
// data:
//
//   - Scan — the leaf; pulls batches from a Source (a VTB/CSV file, a live
//     multi-segment dataset, an in-memory slice) under a pushed-down
//     colstore.Predicate, so zone maps prune whole blocks before decode;
//   - Filter — row predicates (time window, floor, box, object, or custom);
//   - TimeBucket — align each row's timestamp to its bucket start, the key
//     for time-grouped aggregation;
//   - Derive — compute the Val column from each batch (e.g. DwellGaps);
//   - Aggregate — hash aggregation (count/sum) grouped by any
//     column subset, emitted in deterministic key order;
//   - OrderBy — blocking sort by column keys;
//   - Limit — stop after n rows;
//   - SnapshotAt — one row per object: its interpolated location at an
//     instant (the fold under kNN and snapshot density).
//
// A Plan is the logical operator chain, built fluently:
//
//	p := plan.NewScan(src).
//		Filter(plan.TimeBetween(0, 600), plan.OnFloor(1)).
//		Aggregate(plan.By(plan.ColPartition), plan.CountInto(plan.ColVal))
//	c, err := p.Compile()
//
// Compile runs the tiny planner: adjacent Filters merge, every pushable
// conjunct (time/floor/box/object) moves into the Scan's block predicate —
// so the storage layer's zone-map pruning serves the algebra exactly as it
// served the hard-coded operators — and what does not push down stays one
// residual Filter. The compiled operator tree is then
// pulled batch-at-a-time: Next/Batch/Err/Stats/Close, the same contract as
// the storage.Cursor a Source hands the Scan leaf.
//
// No operator builds a row: a Filter narrows a selection vector and gathers
// the survivors once, Aggregate numbers key tuples with dense group
// IDs (one hash lookup per run of equal keys), OrderBy and Aggregate's
// emission radix-sort a permutation, and blocking operators keep their
// buffers in pooled scratch. Only Where predicates, SnapshotAt's
// InterpolateAt call and CollectSamples/CollectRows view rows as Samples.
//
// Ownership: a Batch yielded by an operator is valid only until that
// operator's next Next or Close. Operators never mutate the batches they
// consume; anything that reorders, drops, or rewrites rows copies into its
// own scratch batch. Sources may therefore hand out shared (e.g. cached)
// batches safely.
package plan

import (
	"vita/internal/colstore"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// Batch is the unit of dataflow between operators: one column batch of
// trajectory rows plus an optional derived float column. Val is nil until a
// Derive or Aggregate introduces it; when present it is row-aligned with the
// trajectory columns.
type Batch struct {
	Traj *colstore.TrajectoryBatch
	Val  []float64
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b.Traj == nil {
		return 0
	}
	return b.Traj.Len()
}

// Operator is one node of a compiled plan: a vectorized volcano iterator.
// The contract matches the storage cursors: Next advances to the next
// non-empty batch, Batch is valid until the following Next or Close, Err
// surfaces the first failure, Stats aggregates the scan statistics of the
// leaves, and Close releases the tree (returning Err).
type Operator interface {
	Next() bool
	Batch() *Batch
	Err() error
	Stats() colstore.ScanStats
	Close() error
}

// Source supplies batches to a Scan leaf. Open is called at most once, on
// the first Next of the compiled plan, with the predicate the planner pushed
// down — implementations back it with zone-map-pruned cursors where the
// storage format allows.
type Source interface {
	Open(pred colstore.Predicate) (storage.TrajectoryCursor, error)
}

// CollectSamples drains op and materializes every row as a Sample, then
// closes it. It is the convenient terminal for row-shaped plans (tests, small
// results); large scans should iterate batches instead.
func CollectSamples(op Operator) ([]trajectory.Sample, error) {
	var out []trajectory.Sample
	for op.Next() {
		out = op.Batch().Traj.AppendTo(out)
	}
	return out, op.Close()
}

// Row is one materialized output row with its derived value — what
// CollectRows yields for aggregate-shaped plans.
type Row struct {
	Sample trajectory.Sample
	Val    float64
}

// CollectRows drains op keeping each row's Val column alongside the sample,
// then closes it.
func CollectRows(op Operator) ([]Row, error) {
	var out []Row
	for op.Next() {
		b := op.Batch()
		for i := 0; i < b.Len(); i++ {
			out = append(out, Row{Sample: b.Traj.Row(i), Val: colNum(b, ColVal, i)})
		}
	}
	return out, op.Close()
}
