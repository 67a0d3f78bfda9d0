package seglog

import (
	"log"
	"log/slog"
	"testing"

	"vita/internal/colstore"
)

// BenchmarkSegmentSeal times one segment commit: a writer rolls a segment
// every 8 rows, so each iteration writes 8 rows and seals one segment
// (footer, segment fsync, rename, directory fsync, manifest commit). ns/op is
// the cost of one seal.
func BenchmarkSegmentSeal(b *testing.B) {
	l, err := Create(b.TempDir(), colstore.KindTrajectory)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 8})
	if err != nil {
		b.Fatal(err)
	}
	samples := logSamples(8)
	// Every seal logs a line, which would land inside the result line.
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.DiscardHandler))
	defer func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	}()
	b.ResetTimer()
	for range b.N {
		for _, s := range samples {
			if err := w.Write(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if got := len(l.Snapshot().Segments); got != b.N {
		b.Fatalf("sealed %d segments, want %d", got, b.N)
	}
}
