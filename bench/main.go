// Command bench is the repository's end-to-end benchmark: four fixed
// workloads over data it generates itself, six end-to-end metrics measured
// with tracing off, and a per-layer ledger from a separate traced run. See
// README.md in this directory, and BENCHMARK.json at the repository root for
// the contract the driver holds it to.
//
//	go run ./bench --workload http_hot --seed 1 --seconds 10 --trace 0
//	go run ./bench                 # every workload, both modes, one table
//	go run ./bench -selfcheck      # everything twice; fails if the sets disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// servingSetups is how many times a serving workload generates and opens the
// scale dataset in an end-to-end run; setup_s is the median.
const servingSetups = 3

// runConfig is one workload run.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	reps     int // > 0: exactly this many timed reps, whatever seconds says
	trace    bool
	quick    bool
	dir      string // the bench directory: data and out live under it
}

func (c runConfig) dataDir() string {
	return filepath.Join(c.dir, "data", fmt.Sprintf("%s-%d-%d", c.workload.name, c.seed, os.Getpid()))
}

func (c runConfig) outDir() string { return filepath.Join(c.dir, "out") }

// setups is how many full set-ups a run makes: several when setup_s is
// reported, one when it is not.
func (c runConfig) setups(full int) int {
	if c.trace || c.quick {
		return 1
	}
	return full
}

// enough reports whether the timed reps may stop: after the workload's
// minimum, once the measuring time is used up. Every rep replays the whole
// fixed list, so a faster commit fits more reps in, never different work.
func (c runConfig) enough(done, minReps int, elapsed time.Duration) bool {
	if c.reps > 0 {
		return done >= c.reps
	}
	if c.quick {
		return done >= 1
	}
	return done >= minReps && elapsed.Seconds() >= c.seconds
}

// discardLogs points slog's default logger — which the serving layer logs
// every request through, and the segment log every seal — at a text handler
// at Info that writes nowhere: the cost of logging stays paid, as vitaserve
// pays it, and the speed of the terminal stays out of the numbers.
func discardLogs() {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})))
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: clean up:", err)
	}
}

// result is everything one run measured. The driver reads only the last
// line of stdout (see contractLine); the rest goes to out/result-*.json for
// the all-workloads and selfcheck modes.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Quick     bool               `json:"quick,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]any     `json:"notes,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Env       environment        `json:"env"`
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.workload.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Quick:    cfg.quick,
		Metrics:  map[string]float64{},
		Notes:    map[string]any{},
		Env:      currentEnv(),
	}
}

func (r *result) attempt(n int) { r.Attempted += n }

func (r *result) failure(err error) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// absorb counts a replayed list's operations and failures.
func (r *result) absorb(n int, l loopResult) {
	r.Attempted += n
	r.Failed += l.failed
	if l.first != nil && len(r.Failures) < 10 {
		r.Failures = append(r.Failures, l.first.Error())
	}
}

// environment is recorded with every result, so numbers are never compared
// across boxes by accident.
type environment struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func currentEnv() environment {
	env := environment{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// catalogue returns the metric definitions a run in the given mode reports.
func catalogue(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the one JSON object the driver parses: exactly the
// keys correct, attempted, failed and metrics, with every metric of the
// run's mode present.
func contractLine(r *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, d := range catalogue(r.Trace) {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	for name := range r.Metrics {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return json.Marshal(out)
}

// printResult writes the human-readable table.
func printResult(w io.Writer, r *result) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  (%s)  nproc %d  %s  commit %s\n",
		r.Workload, r.Seed, mode, r.Env.NProc, r.Env.Go, r.Env.Commit)
	for _, d := range catalogue(r.Trace) {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  # %s: %v\n", k, r.Notes[k])
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func resultPath(outDir, workload string, trace bool) string {
	mode := "e2e"
	if trace {
		mode = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, mode))
}

// runOne runs a single workload in this process.
func runOne(cfg runConfig) (*result, error) {
	start := time.Now()
	var r *result
	var err error
	if cfg.workload.name == "gen_mall" {
		r, err = runGen(cfg)
	} else {
		r, err = runServing(cfg)
	}
	if err != nil {
		return nil, err
	}
	r.Notes["run_wall_s"] = time.Since(start).Seconds()
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return r, os.WriteFile(resultPath(cfg.outDir(), r.Workload, r.Trace), raw, 0o644)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (empty: all of them, each in a child process)")
		seed      = flag.Uint64("seed", 1, "seed of the generated data and request lists")
		secs      = flag.Float64("seconds", runSeconds, "measuring time per workload; whole reps of the fixed list run until it is used up")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced passes")
		reps      = flag.Int("reps", 0, "run exactly this many timed reps (overrides -seconds)")
		quick     = flag.Bool("quick", false, "tiny profile and lists: exercises every path in seconds, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end median moves by more than its bound")
		golden    = flag.Bool("write-golden", false, "with no -workload: rewrite golden.json from this run's digests")
		dir       = flag.String("dir", "bench", "the bench directory (data/ and out/ are created under it)")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json as the tables in workloads.go define it, and exit")
	)
	flag.Parse()
	if *contract {
		fmt.Printf("%s\n", contractFile())
		return
	}
	discardLogs()

	if fi, err := os.Stat(*dir); err != nil || !fi.IsDir() {
		fatal(fmt.Errorf("bench directory %q not found: run from the repository root or pass -dir", *dir))
	}
	base := runConfig{seed: *seed, seconds: *secs, reps: *reps, trace: *trace != 0, quick: *quick, dir: *dir}

	if *name == "" {
		if err := runAll(base, *selfcheck, *golden); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	base.workload = w
	r, err := runOne(base)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, r)
	line, err := contractLine(r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if r.Failed > 0 {
		os.Exit(1)
	}
}

// runSeconds is the measuring time BENCHMARK.json asks the driver to pass.
const runSeconds = 15

// contractFile renders BENCHMARK.json from the tables in workloads.go.
func contractFile() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{d.name, d.unit, d.better, nil})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return raw
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
