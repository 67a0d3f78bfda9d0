package colstore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"vita/internal/trajectory"
)

// syncImage is the image of samples written by a writer that encodes every
// block inline, on the caller's goroutine: the oracle for the background
// block encoding.
func syncImage(samples []trajectory.Sample, opts Options) []byte {
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, opts)
	n := w.bw.opts.BlockSize
	for start := 0; start < len(samples); start += n {
		w.flush(samples[start:min(start+n, len(samples))])
	}
	w.bw.close()
	return buf.Bytes()
}

// TestWriterBackgroundBlocksMatchInline: handing full blocks to the
// background goroutine writes the same bytes an inline writer does, and
// Flushed counts, at each hand-off, exactly the blocks before it.
func TestWriterBackgroundBlocksMatchInline(t *testing.T) {
	samples := awkwardSamples()
	for _, opts := range []Options{{}, {BlockSize: 64}, {BlockSize: 7, Codec: CodecRaw}, {BlockSize: 100, Codec: CodecFlate}} {
		want := syncImage(samples, opts)
		var buf bytes.Buffer
		w := NewTrajectoryWriter(&buf, opts)
		bs := w.bw.opts.BlockSize
		var flushed []int64
		for i, s := range samples {
			if err := w.Write(s); err != nil {
				t.Fatal(err)
			}
			if (i+1)%bs == 0 {
				flushed = append(flushed, w.Flushed())
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("opts %+v: background image (%d bytes) differs from the inline one (%d bytes)", opts, buf.Len(), len(want))
		}
		if w.Flushed() != int64(len(want)) {
			t.Fatalf("opts %+v: Flushed after Close = %d, image is %d bytes", opts, w.Flushed(), len(want))
		}
		// At hand-off k (0-based) the blocks before it are written: none for
		// the first, then header plus blocks 0..k-1 — each a prefix of the
		// inline image, taken at a block boundary.
		r := readTrajectory(t, want)
		for k, got := range flushed {
			var wantK int64
			if k > 0 {
				wantK = int64(r.offsets[k])
			}
			if got != wantK {
				t.Fatalf("opts %+v: Flushed at hand-off %d = %d, want %d", opts, k, got, wantK)
			}
		}
	}
}

// TestWriterResetLeavesNoGoroutine: a pooled writer Reset in the middle of a
// multi-block image, or Closed after one, leaves no goroutine running, and
// the next image is whole.
func TestWriterResetLeavesNoGoroutine(t *testing.T) {
	samples := awkwardSamples()
	base := runtime.NumGoroutine()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, Options{BlockSize: 64})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	var next bytes.Buffer
	w.Reset(&next) // abandons the first image with a block in flight
	for _, s := range samples[:100] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := syncImage(samples[:100], Options{BlockSize: 64}); !bytes.Equal(next.Bytes(), want) {
		t.Fatalf("the image after Reset differs from a fresh writer's")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Reset and Close, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWrite = errors.New("device full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWrite
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriterBackgroundErrorSurfaces: a block that fails in the background
// fails the Write that hands off the next block at the latest, and Close.
func TestWriterBackgroundErrorSurfaces(t *testing.T) {
	const bs = 64
	samples := awkwardSamples()
	w := NewTrajectoryWriter(&failAfter{n: 100}, Options{BlockSize: bs})
	failedAt := -1
	for i, s := range samples {
		if err := w.Write(s); err != nil {
			if !errors.Is(err, errWrite) {
				t.Fatalf("Write %d: %v, want the write error", i, err)
			}
			failedAt = i
			break
		}
	}
	// Row bs-1 hands off the failing block 0; row 2·bs-1 hands off block 1,
	// which waits for block 0 first.
	if failedAt < 0 || failedAt > 2*bs-1 {
		t.Fatalf("the write error surfaced at row %d, want by row %d", failedAt, 2*bs-1)
	}
	if err := w.Close(); !errors.Is(err, errWrite) {
		t.Fatalf("Close: %v, want the write error", err)
	}
}
