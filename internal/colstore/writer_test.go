package colstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"vita/internal/trajectory"
)

// TestWriterFlushedAtBlockBoundaries: after the Write that completes block k
// (0-based), Flushed counts exactly the blocks before it — none for the
// first, then header plus blocks 0..k-1 — and after Close the whole image,
// which reads back as the rows written.
func TestWriterFlushedAtBlockBoundaries(t *testing.T) {
	samples := awkwardSamples()
	for _, opts := range []Options{{}, {BlockSize: 64}, {BlockSize: 7}} {
		var buf bytes.Buffer
		w := NewTrajectoryWriter(&buf, opts)
		bs := w.opts.BlockSize
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
		if w.Flushed() != int64(buf.Len()) {
			t.Fatalf("opts %+v: Flushed after Close = %d, image is %d bytes", opts, w.Flushed(), buf.Len())
		}
		r := readTrajectory(t, buf.Bytes())
		for k, got := range flushed {
			var wantK int64
			if k > 0 {
				wantK = int64(r.offsets[k])
			}
			if got != wantK {
				t.Fatalf("opts %+v: Flushed after block %d = %d, want %d", opts, k, got, wantK)
			}
		}
		got, _, err := drain(r.Cursor(Predicate{}))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, samples) {
			t.Fatalf("opts %+v: the image does not read back as the rows written", opts)
		}
	}
}

// writeImage is the image of samples written by a fresh writer.
func writeImage(t *testing.T, samples []trajectory.Sample, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, opts)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterResetStartsFreshImage: a pooled writer Reset in the middle of a
// multi-block image writes the next image exactly as a fresh writer does.
func TestWriterResetStartsFreshImage(t *testing.T) {
	samples := awkwardSamples()
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf, Options{BlockSize: 64})
	for _, s := range samples[:len(samples)-10] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	var next bytes.Buffer
	w.Reset(&next) // abandons the first image with a block half filled
	for _, s := range samples[:100] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := writeImage(t, samples[:100], Options{BlockSize: 64}); !bytes.Equal(next.Bytes(), want) {
		t.Fatalf("the image after Reset differs from a fresh writer's")
	}
}

// failAfter accepts n bytes, then fails every write; it counts its calls.
type failAfter struct{ n, calls int }

var errWrite = errors.New("device full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWrite
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriterErrorIsSticky: the Write that completes a block the io.Writer
// fails on returns the write error; every later Write and Close returns the
// same error, and the io.Writer is not called again.
func TestWriterErrorIsSticky(t *testing.T) {
	const bs = 64
	samples := awkwardSamples()
	f := &failAfter{n: 100}
	w := NewTrajectoryWriter(f, Options{BlockSize: bs})
	for i, s := range samples[:bs-1] {
		if err := w.Write(s); err != nil {
			t.Fatalf("Write %d, before the first block is full: %v", i, err)
		}
	}
	if f.calls != 0 {
		t.Fatalf("%d writes before the first block is full, want 0", f.calls)
	}
	werr := w.Write(samples[bs-1])
	if !errors.Is(werr, errWrite) {
		t.Fatalf("the Write completing block 0: %v, want the write error", werr)
	}
	calls := f.calls
	for i, s := range samples[bs : 2*bs+1] {
		if err := w.Write(s); err != werr {
			t.Fatalf("Write %d after the error: %v, want %v", bs+i, err, werr)
		}
	}
	for range 2 {
		if err := w.Close(); err != werr {
			t.Fatalf("Close: %v, want %v", err, werr)
		}
	}
	if f.calls != calls {
		t.Fatalf("the io.Writer was called %d more times after it failed", f.calls-calls)
	}
}
