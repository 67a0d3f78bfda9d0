package trajectory

import (
	"fmt"
	"testing"

	"vita/internal/object"
	"vita/internal/rng"
)

// BenchmarkEngineRun measures sharded trajectory generation at several
// worker counts (60 objects, 300 simulated seconds). Near-linear scaling up
// to the core count is the goal; p=1 is the sequential baseline.
func BenchmarkEngineRun(b *testing.B) {
	tp := officeTopo(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp, err := object.NewSpawner(tp, object.SpawnConfig{
					InitialCount: 60,
					MinLifespan:  300, MaxLifespan: 300,
					MaxSpeed: 1.6,
					Pattern:  object.DefaultPattern(),
				})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(tp, sp, Config{
					Duration: 300, Tick: 0.25, SampleInterval: 1, Parallelism: p,
				}, rng.New(42))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMerge measures the merge alone: 64 pre-built per-object series
// swept into one time-ordered stream.
func BenchmarkMerge(b *testing.B) {
	const objects, perObj = 64, 300
	series := make([][]Sample, objects)
	for o := range series {
		ss := make([]Sample, perObj)
		for k := range ss {
			ss[k] = Sample{ObjID: o + 1, T: float64(k)}
		}
		series[o] = ss
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Merge(series, func(batch []Sample) error {
			n += len(batch)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != objects*perObj {
			b.Fatalf("merged %d samples, want %d", n, objects*perObj)
		}
	}
}
