package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseResultLines(t *testing.T) {
	doc, err := parse(strings.NewReader(`goos: linux
goarch: amd64
cpu: Fake CPU @ 2.00GHz
BenchmarkScan-8   	    1000	   1234.5 ns/op	      64 B/op	       2 allocs/op
BenchmarkKNN/k=5-8	     500	   2000 ns/op
PASS
ok  	vita/internal/query	1.0s
`), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.CPU == "" {
		t.Errorf("envelope: %+v", doc)
	}
	scan, ok := doc.Benchmarks["BenchmarkScan"]
	if !ok || scan.NsPerOp != 1234.5 || scan.BytesPerOp == nil || *scan.BytesPerOp != 64 {
		t.Errorf("BenchmarkScan: %+v (ok=%v)", scan, ok)
	}
	if _, ok := doc.Benchmarks["BenchmarkKNN/k=5"]; !ok {
		t.Errorf("sub-benchmark key missing: %v", doc.Benchmarks)
	}
}
