package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"time"
)

// Span is one node of a query trace: an operator (or logical stage) with its
// observed work. The serve layer builds a Span tree per traced request and
// returns it in the response's "trace" field; the same tree feeds the
// slow-query log. All counts are totals over the span's lifetime — this is
// an EXPLAIN ANALYZE record, not a streaming event.
type Span struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`

	Batches   int   `json:"batches,omitempty"`
	Rows      int   `json:"rows,omitempty"`
	WallNanos int64 `json:"wall_ns"`

	// Scan-only: zone-map pruning and decode work, copied from the scan
	// cursor's stats when the operator closes.
	BlocksTotal   int `json:"blocks_total,omitempty"`
	BlocksPruned  int `json:"blocks_pruned,omitempty"`
	BlocksScanned int `json:"blocks_scanned,omitempty"`
	RowsScanned   int `json:"rows_scanned,omitempty"`
	RowsMatched   int `json:"rows_matched,omitempty"`

	Children []*Span `json:"children,omitempty"`
}

// AddWall accumulates elapsed wall time onto the span.
func (s *Span) AddWall(d time.Duration) { s.WallNanos += int64(d) }

// SpanCount returns the number of spans in the tree rooted at s.
func (s *Span) SpanCount() int {
	n := 1
	for _, c := range s.Children {
		n += c.SpanCount()
	}
	return n
}

// WriteTree renders the span tree as indented text, one operator per line —
// the human-facing form printed by vitaquery -trace.
func (s *Span) WriteTree(w io.Writer) {
	s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	fmt.Fprintf(w, "%s", s.Op)
	if s.Detail != "" {
		fmt.Fprintf(w, " (%s)", s.Detail)
	}
	fmt.Fprintf(w, ": rows=%d batches=%d wall=%s", s.Rows, s.Batches, time.Duration(s.WallNanos).Round(time.Microsecond))
	if s.BlocksTotal > 0 {
		fmt.Fprintf(w, " blocks=%d/%d pruned=%d rows_scanned=%d matched=%d",
			s.BlocksScanned, s.BlocksTotal, s.BlocksPruned, s.RowsScanned, s.RowsMatched)
	}
	io.WriteString(w, "\n")
	for _, c := range s.Children {
		c.writeTree(w, depth+1)
	}
}

// NewRequestID returns a 16-hex-char random request identifier for log
// correlation (the X-Request-Id header).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to a
		// constant rather than take the request down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
