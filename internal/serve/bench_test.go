package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/storage"
)

// BenchmarkServeHandler serves one request per operator through the
// server's handler, middleware included, into an httptest recorder: no
// network, a warm block cache, and the Accept header serve.Client sends. Its
// allocs/op is the HTTP shell's cost on top of the operator's own.
func BenchmarkServeHandler(b *testing.B) {
	dir := b.TempDir()
	writeDataset(b, dir, storage.FormatVTB, testSamples())
	ds, err := Open(dir, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	h := NewServerWith(ds, ServerOptions{Metrics: obs.NewRegistry(), Logger: quietLogger()}).Handler()
	for _, op := range []struct{ name, url string }{
		{"range", "/v1/range?floor=0&box=1.5,0.25,17.75,9.5&t0=33.5&t1=147.25"},
		{"knn", "/v1/knn?floor=1&at=10.125,7.625&t=420.5&k=4"},
		{"density", "/v1/density?t=250"},
		{"traj", "/v1/traj?obj=5&t0=100&t1=500"},
		{"dwell", "/v1/dwell?floor=-1&t0=50&t1=450"},
		{"info", "/v1/info"},
		{"watch", "/v1/watch?floor=0&box=1.5,0.25,17.75,9.5"},
	} {
		b.Run(op.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, op.url, nil)
			req.Header.Set("Accept", vtbMediaType+", application/json")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", op.url, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkCachedScan times the scan leaf on a warm cache (under the gate's
// GOMAXPROCS(1), three windows of two blocks, every one a hit): five
// 512-row blocks under a time+floor predicate that prunes nothing, covers
// nothing (both floors occur in every block) and keeps half of each block —
// so every block goes through the columnar filter into the cursor's scratch
// batch. It lives here, not in the root bench_test.go, because the leaf is
// unexported. Two allocation gates: the first Next sizes the scratch and no
// later batch may allocate at all; and a whole warm scan — open, prune, cache
// lookups, drain — stays within a fixed budget that no per-row or per-block
// cost would fit in.
func BenchmarkCachedScan(b *testing.B) {
	const blocks = 5
	dir := b.TempDir()
	samples := testSamples()[:blocks*512]
	writeDataset(b, dir, storage.FormatVTB, samples)
	ds, err := Open(dir, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	pred := colstore.Predicate{HasTime: true, T0: 0, T1: 290, HasFloor: true, Floor: 1}
	want := 0
	for _, s := range samples {
		if pred.MatchTrajectory(s) {
			want++
		}
	}
	// scan drains one warm load and returns how many mallocs the batches
	// after the first cost.
	var ms runtime.MemStats
	scan := func(countTail bool) (tail uint64) {
		src, err := ds.pinSource()
		if err != nil {
			b.Fatal(err)
		}
		defer src.release()
		cur, err := src.Open(pred)
		if err != nil {
			b.Fatal(err)
		}
		rows, batches := 0, 0
		for cur.Next() {
			rows += cur.Batch().Len()
			if batches++; batches == 1 && countTail {
				runtime.ReadMemStats(&ms)
				tail = ms.Mallocs
			}
		}
		if countTail {
			runtime.ReadMemStats(&ms)
			tail = ms.Mallocs - tail
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		st := src.finalStats()
		if rows != want || batches != blocks || st.CacheMisses != 0 || st.CacheHits != blocks {
			b.Fatalf("warm scan: %d rows in %d batches, %+v; want %d rows in %d batches, all hits",
				rows, batches, st, want, blocks)
		}
		return tail
	}
	if _, err := ds.Info(false); err != nil { // warm the cache
		b.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(1) // as testing.AllocsPerRun does: nobody else mallocs
	tail := scan(true)
	runtime.GOMAXPROCS(prev)
	if tail != 0 {
		b.Fatalf("batches after the first cost %d allocs, want 0", tail)
	}
	const budget = 40 // cursor, block list, window, scratch columns, selection
	allocs := testing.AllocsPerRun(10, func() { scan(false) })
	if allocs > budget {
		b.Fatalf("warm cached scan costs %.0f allocs, budget %d", allocs, budget)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(samples)), "ns/row")
	b.ReportMetric(allocs, "allocs/scan")
}
