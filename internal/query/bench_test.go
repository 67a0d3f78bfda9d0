package query_test

import (
	"testing"

	"vita/internal/geom"
	"vita/internal/query"
)

// BenchmarkContinuousFeed streams a 100-object, 10-minute synthetic workload
// (~60k samples) through eight standing range queries. bench_test.go at the
// repo root runs the same engine over real pipeline output.
func BenchmarkContinuousFeed(b *testing.B) {
	samples := syntheticSamples(16, 100, 600)
	box := geom.BBox{Min: geom.Pt(20, 10), Max: geom.Pt(70, 40)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := query.NewContinuousEngine()
		for j := 0; j < 8; j++ {
			eng.Subscribe(j%2, box, func(query.Event) {})
		}
		eng.FeedAll(samples)
	}
}
