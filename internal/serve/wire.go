package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"vita/internal/colstore"
	"vita/internal/trajectory"
)

// The row body is how the two endpoints that return sample rows (/v1/range,
// /v1/traj) answer a request carrying Accept: application/vnd.vita.vtb:
//
//	envelope length (u32, little-endian)
//	envelope: the response struct as JSON with its row slice nil
//	rows: a VTB trajectory image (colstore's file layout); absent for zero rows
//
// The envelope is a few hundred bytes (query echo, objects, stats, trace); the
// rows cross the wire as columns, so neither side reflects over them.
const vtbMediaType = "application/vnd.vita.vtb"

// bodyBufs holds the buffers whole bodies are assembled in before the
// server's one Write, and read into by the client before decoding.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBodyBuf checks an empty buffer out of bodyBufs; return it with Put.
func getBodyBuf() *bytes.Buffer {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// rowWriters holds the row body's block writers, pooled because each owns a
// block-sized row buffer, its columns and a compressor — some 400 KB, far
// more than a response's rows. The codec is colstore's default, vsnap:
// measured on a 300-row answer (BenchmarkRowsBody) it costs 7 % more encode
// plus decode time than storing blocks raw, a difference http_hot cannot
// see, and it more than halves the body (2.2 KB against 5.1 KB per http_hot
// response); flate is half as fast again for another 15 %.
var rowWriters = sync.Pool{New: func() any {
	return colstore.NewTrajectoryWriter(nil, colstore.Options{})
}}

// encodeRowsBody appends to buf the row body of resp, whose row slice is
// *rows.
func encodeRowsBody(buf *bytes.Buffer, resp any, rows *[]trajectory.Sample) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0}) // the envelope length, once it is known
	all := *rows
	*rows = nil
	err := json.NewEncoder(buf).Encode(resp)
	*rows = all
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[start:], uint32(buf.Len()-start-4))
	if len(all) == 0 {
		return nil
	}
	w := rowWriters.Get().(*colstore.TrajectoryWriter)
	defer rowWriters.Put(w)
	w.Reset(buf)
	for _, s := range all {
		if err := w.Write(s); err != nil {
			return err
		}
	}
	return w.Close()
}

// decodeRowsBody is encodeRowsBody's inverse: it fills out from the envelope
// and *rows from the image (nil when there is none). Nothing it returns
// aliases body.
func decodeRowsBody(body []byte, out any, rows *[]trajectory.Sample) error {
	if len(body) < 4 {
		return errors.New("row body: shorter than its envelope length")
	}
	n := int64(binary.LittleEndian.Uint32(body))
	if n > int64(len(body)-4) {
		return fmt.Errorf("row body: envelope length %d past the %d-byte body", n, len(body))
	}
	if err := json.Unmarshal(body[4:4+n], out); err != nil {
		return fmt.Errorf("row body: envelope: %w", err)
	}
	*rows = nil
	img := body[4+n:]
	if len(img) == 0 {
		return nil
	}
	tr, err := colstore.NewTrajectoryReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return fmt.Errorf("row body: %w", err)
	}
	// Sized block by block from what actually decoded, never from the
	// footer's claim, so a hostile image cannot drive the allocation.
	var got []trajectory.Sample
	cur := tr.Cursor(colstore.Predicate{})
	for cur.Next() {
		b := cur.Batch()
		got = b.AppendTo(slices.Grow(got, b.Len()))
	}
	if err := cur.Close(); err != nil {
		return fmt.Errorf("row body: %w", err)
	}
	if len(got) == 0 || len(got) != tr.Len() {
		return fmt.Errorf("row body: image holds %d rows, its footer says %d", len(got), tr.Len())
	}
	*rows = got
	return nil
}
