// Command benchjson converts `go test -bench` output into a machine-readable
// JSON document, so CI can archive benchmark results as an artifact and later
// runs (or humans with jq) can diff them without re-parsing Go's text format:
//
//	go test -bench . -benchmem ./internal/... | benchjson -o BENCH.json
//	benchjson -o - < bench.txt     # write JSON to stdout
//
// Every benchmark result line becomes one entry keyed by the benchmark's name
// with the -cpu suffix stripped (Benchmark prefix kept, so keys match the
// source), carrying iterations, ns/op, and — when the run used -benchmem —
// B/op and allocs/op. Header lines (goos, goarch, cpu) are captured into the
// envelope. Non-benchmark lines pass through untouched to stderr, so piping a
// test run through benchjson loses nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"b_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Doc is the JSON envelope benchjson writes.
type Doc struct {
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "BENCH.json", "output file (- = stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// parse scans r line by line, collecting benchmark results and echoing every
// non-result line to passthrough.
func parse(r io.Reader, passthrough io.Writer) (*Doc, error) {
	doc := &Doc{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if name, res, ok := parseResult(line); ok {
				doc.Benchmarks[name] = res
				continue
			}
			fmt.Fprintln(passthrough, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	return doc, nil
}

// parseResult decodes one result line of the form
//
//	BenchmarkName-8  1000  1234.5 ns/op  64 B/op  2 allocs/op
//
// reporting ok=false for anything else.
func parseResult(line string) (string, Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix, but only if what follows is a number —
		// sub-benchmark names may legitimately contain dashes.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			ns, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", Result{}, false
			}
			res.NsPerOp = ns
			seen = true
		case "B/op":
			b, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return "", Result{}, false
			}
			res.BytesPerOp = &b
		case "allocs/op":
			a, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return "", Result{}, false
			}
			res.AllocsPerOp = &a
		}
	}
	if !seen {
		return "", Result{}, false
	}
	return name, res, true
}
