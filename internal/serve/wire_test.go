package serve

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"vita/internal/colstore"
	"vita/internal/trajectory"
)

// realRowBodies encodes one row body per endpoint from the test dataset's own
// answers: a range answer and a traj answer.
func realRowBodies(t testing.TB) (rangeBody, trajBody []byte) {
	t.Helper()
	samples := testSamples()
	rr := &RangeResponse{Query: RangeRequest{Floor: 0, T1: 40}, Hits: samples[:300], Objects: []int{0, 1, 2}}
	tr := &TrajResponse{Query: TrajRequest{Obj: 5, T1: 1e18}, Samples: samples[300:420]}
	var a, b bytes.Buffer
	if err := encodeRowsBody(&a, rr, &rr.Hits); err != nil {
		t.Fatal(err)
	}
	if err := encodeRowsBody(&b, tr, &tr.Samples); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// emptyImage is a well-formed VTB trajectory image with no rows, which the
// encoder never sends (zero rows means no image at all).
func emptyImage(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := colstore.NewTrajectoryWriter(&buf, colstore.Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRowsBodyRoundTrip(t *testing.T) {
	samples := testSamples()
	for _, n := range []int{0, 1, 300, len(samples)} {
		want := &RangeResponse{Query: RangeRequest{Floor: -1, T0: 1.5, T1: 99}, Objects: []int{}}
		if n > 0 {
			want.Hits = samples[:n]
		}
		var buf bytes.Buffer
		if err := encodeRowsBody(&buf, want, &want.Hits); err != nil {
			t.Fatal(err)
		}
		if len(want.Hits) != n {
			t.Fatalf("n=%d: encoding left the response with %d hits", n, len(want.Hits))
		}
		got := &RangeResponse{Hits: samples[:1]} // stale rows must not survive a zero-row body
		if err := decodeRowsBody(buf.Bytes(), got, &got.Hits); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: round trip changed the response", n)
		}
	}
}

func TestDecodeRowsBodyRejects(t *testing.T) {
	body, _ := realRowBodies(t)
	envLen := int(binary.LittleEndian.Uint32(body))
	envelope := body[:4+envLen]
	lying := bytes.Clone(body)
	// The first footer entry's row count sits 8 bytes into the entry, which
	// starts 4 bytes into the footer the tail points at.
	tail := lying[len(lying)-12:]
	footerOff := 4 + envLen + int(binary.LittleEndian.Uint64(tail))
	binary.LittleEndian.PutUint32(lying[footerOff+4+8:], 1<<31)

	for name, in := range map[string][]byte{
		"nothing":                         nil,
		"short envelope length":           body[:3],
		"envelope length past the body":   body[:4+envLen-1],
		"envelope is not JSON":            append([]byte{2, 0, 0, 0}, "{]"...),
		"truncated image":                 body[:len(body)-5],
		"image cut inside its header":     body[:4+envLen+3],
		"zero rows with trailing bytes":   append(bytes.Clone(envelope), 0),
		"zero-row image":                  append(bytes.Clone(envelope), emptyImage(t)...),
		"footer claims rows it lacks":     lying,
		"second image after the first":    append(bytes.Clone(body), body[4+envLen:]...),
		"envelope length of four billion": {0xff, 0xff, 0xff, 0xff, '{', '}'},
	} {
		var resp RangeResponse
		if err := decodeRowsBody(in, &resp, &resp.Hits); err == nil {
			t.Errorf("%s: decoded without error (%d hits)", name, len(resp.Hits))
		} else if !strings.HasPrefix(err.Error(), "row body: ") {
			t.Errorf("%s: error %q does not say where it came from", name, err)
		}
	}
}

// FuzzDecodeRowsBody: whatever the bytes, the body decoder returns rows or an
// error — it never panics — and what it accepts is self-consistent: rows only
// when an image followed the envelope.
func FuzzDecodeRowsBody(f *testing.F) {
	rangeBody, trajBody := realRowBodies(f)
	envLen := int(binary.LittleEndian.Uint32(rangeBody))
	f.Add(rangeBody)
	f.Add(trajBody)
	f.Add(rangeBody[:3])                                                   // short envelope length
	f.Add(rangeBody[:4+envLen-1])                                          // length past the body
	f.Add(rangeBody[:len(rangeBody)-5])                                    // truncated image
	f.Add(append(bytes.Clone(rangeBody[:4+envLen]), 0))                    // zero rows, trailing bytes
	f.Add(append(bytes.Clone(rangeBody[:4+envLen]), emptyImage(f)...))     // zero-row image
	f.Add(append(bytes.Clone(trajBody), trajBody[len(trajBody)-20:]...))   // bytes after the image
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})                        // four-billion-byte envelope
	f.Add(append([]byte{2, 0, 0, 0, '{', '}'}, []byte("VTB1\x01\x00")...)) // header and nothing else
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp TrajResponse
		rows := []trajectory.Sample{{ObjID: -1}}
		if err := decodeRowsBody(body, &resp, &rows); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(body))
		if hasImage := len(body) > 4+n; hasImage != (len(rows) > 0) {
			t.Fatalf("accepted a %d-byte body with a %d-byte envelope and decoded %d rows", len(body), n, len(rows))
		}
	})
}

// BenchmarkRowsBody times one encode and one decode of a typical answer (the
// http_hot mean is a few hundred rows). It is how the wire's codec and block
// size were chosen; see rowWriters.
func BenchmarkRowsBody(b *testing.B) {
	resp := &RangeResponse{Query: RangeRequest{Floor: 0, T1: 40}, Hits: testSamples()[:300], Objects: []int{0, 1, 2}}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := encodeRowsBody(&buf, resp, &resp.Hits); err != nil {
			b.Fatal(err)
		}
		var got RangeResponse
		if err := decodeRowsBody(buf.Bytes(), &got, &got.Hits); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "body-B")
}
