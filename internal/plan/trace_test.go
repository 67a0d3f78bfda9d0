package plan

import (
	"strings"
	"testing"

	"vita/internal/obs"
)

// findSpan returns the first span in the tree with the given Op, or nil.
func findSpan(s *obs.Span, op string) *obs.Span {
	if s == nil {
		return nil
	}
	if s.Op == op {
		return s
	}
	for _, c := range s.Children {
		if found := findSpan(c, op); found != nil {
			return found
		}
	}
	return nil
}

// TestTracedPlanParity requires CompileTraced to produce the same rows as
// Compile and a span tree whose per-operator counts agree with the plan's
// own Stats.
func TestTracedPlanParity(t *testing.T) {
	samples := planSamples()
	path := writeVTB(t, samples)

	build := func() *Plan {
		return NewScan(FileSource{Path: path}).
			Filter(TimeBetween(100, 300), OnFloor(0)).
			OrderBy(Asc(ColObjID), Asc(ColT)).
			Limit(500)
	}

	want := collect(t, build())

	c, err := build().CompileTraced()
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectSamples(c)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, want)

	root := c.Trace()
	if root == nil {
		t.Fatal("traced plan has nil span tree")
	}
	if root.Op != "Limit" {
		t.Fatalf("root span = %q, want Limit", root.Op)
	}
	// Operator tree: Limit -> OrderBy -> Scan (time+floor pushed down fully,
	// so no residual Filter survives).
	if got := root.SpanCount(); got != 3 {
		var b strings.Builder
		root.WriteTree(&b)
		t.Fatalf("span count = %d, want 3:\n%s", got, b.String())
	}
	if root.Rows != len(want) {
		t.Fatalf("root span rows = %d, want %d", root.Rows, len(want))
	}

	scan := findSpan(root, "Scan")
	if scan == nil {
		t.Fatal("no Scan span")
	}
	st := c.Stats()
	if scan.BlocksTotal != st.BlocksTotal || scan.BlocksPruned != st.BlocksPruned ||
		scan.BlocksScanned != st.BlocksScanned || scan.RowsScanned != st.RowsScanned ||
		scan.RowsMatched != st.RowsMatched {
		t.Fatalf("scan span stats %+v disagree with plan stats %+v", *scan, st)
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("expected pruning under time filter, stats %+v", st)
	}
	if scan.Detail == "" || !strings.Contains(scan.Detail, "floor=0") {
		t.Fatalf("scan detail %q missing pushed predicate", scan.Detail)
	}

	var b strings.Builder
	root.WriteTree(&b)
	for _, wantLine := range []string{"Limit", "OrderBy", "Scan"} {
		if !strings.Contains(b.String(), wantLine) {
			t.Fatalf("rendered tree missing %s:\n%s", wantLine, b.String())
		}
	}
}

// TestUntracedPlanHasNoTrace ensures the default Compile path carries no
// span machinery at all.
func TestUntracedPlanHasNoTrace(t *testing.T) {
	c := mustCompile(t, NewScan(SliceSource{Samples: planSamples()}).Filter(TimeBetween(0, 10)))
	if c.Trace() != nil {
		t.Fatal("untraced plan has a span tree")
	}
	if _, ok := c.root.(*traceOp); ok {
		t.Fatal("untraced plan root is a traceOp")
	}
}
