package colstore

import (
	"bytes"
	"compress/flate"
	"io"
)

// decodeScratch bundles every kind-independent buffer a block decode needs —
// the flate decompressor and its output buffer, column intermediates, and a
// string-interning table — so the steady-state scan path allocates nothing
// per block. One scratch serves one goroutine at a time: a cursor holds one
// for its lifetime, DecodeBlock for one call.
type decodeScratch struct {
	raw []byte        // decompressed block (vsnap and flate output)
	br  bytes.Reader  // resettable source feeding the flate reader
	fr  io.ReadCloser // pooled flate reader; implements flate.Resetter

	i64 []int64 // scaled-float intermediate column
	sel []int32 // row selection of a cursor's predicate filter
	// seen holds the entries of the dictionary being decoded, so a block
	// whose dictionary repeats one is caught.
	seen map[string]struct{}

	// interned maps previously seen column strings to one shared copy, so a
	// steady-state scan allocates a string only the first time a distinct
	// building/partition/device name appears. Lookups with a []byte key
	// compile to non-allocating map access.
	interned map[string]string
}

// scratch is what a kind's pool holds: the decode buffers plus the batch a
// cursor decodes into, so column capacity is reused from scan to scan.
type scratch[B Batch] struct {
	decodeScratch
	batch B
}

// maxInterned bounds the interning table so adversarial inputs with
// unbounded distinct strings cannot pin memory; past the cap, new strings
// are allocated per block like before.
const maxInterned = 1 << 14

func newDecodeScratch() decodeScratch {
	return decodeScratch{interned: make(map[string]string), seen: make(map[string]struct{})}
}

// intern returns b as a string, reusing the shared copy when the scratch has
// seen it before.
func (sc *decodeScratch) intern(b []byte) string {
	if s, ok := sc.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(sc.interned) < maxInterned {
		sc.interned[s] = s
	}
	return s
}

// flateReset points the pooled flate reader at stored, creating it on first
// use.
func (sc *decodeScratch) flateReset(stored []byte) error {
	sc.br.Reset(stored)
	if sc.fr == nil {
		sc.fr = flate.NewReader(&sc.br)
		return nil
	}
	return sc.fr.(flate.Resetter).Reset(&sc.br, nil)
}

// growBytes returns b resized to n, reallocating only when capacity is
// short.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
