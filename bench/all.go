package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runChild runs one workload in a fresh child process — so heap state and
// peak RSS never leak from one workload into the next — and reads back the
// result file it leaves.
func runChild(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", cfg.workload.name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-reps", strconv.Itoa(cfg.reps),
		"-dir", cfg.dir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The child's table is reprinted by the parent from the result file.
	runErr := cmd.Run()
	raw, err := os.ReadFile(resultPath(cfg.outDir(), cfg.workload.name, cfg.trace))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload.name, runErr)
		}
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runSet runs every workload once in the given mode.
func runSet(base runConfig, trace bool) ([]*result, error) {
	var set []*result
	for _, w := range workloads {
		cfg := base
		cfg.workload, cfg.trace = w, trace
		// A stale file must not pass for this run's result.
		if err := os.Remove(resultPath(cfg.outDir(), w.name, trace)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		r, err := runChild(cfg)
		if err != nil {
			return nil, err
		}
		printResult(os.Stdout, r)
		set = append(set, r)
	}
	return set, nil
}

// runAll is the no --workload mode: every workload end to end, then every
// workload traced; with selfcheck, the end-to-end set twice.
func runAll(base runConfig, selfcheck, writeGolden bool) error {
	first, err := runSet(base, false)
	if err != nil {
		return err
	}
	failed := countFailed(first)
	doc := map[string]any{"env": currentEnv(), "seed": base.seed, "end_to_end": first}

	if selfcheck {
		second, err := runSet(base, false)
		if err != nil {
			return err
		}
		failed += countFailed(second)
		doc["end_to_end_again"] = second
		moved := compareSets(first, second)
		for _, m := range moved {
			fmt.Println("SELFCHECK:", m)
		}
		if len(moved) == 0 {
			fmt.Println("selfcheck: the two sets agree within every bound")
		}
		failed += len(moved)
	}

	layers, err := runSet(base, true)
	if err != nil {
		return err
	}
	failed += countFailed(layers)
	doc["per_layer"] = layers

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	summary := filepath.Join(base.outDir(), "summary.json")
	if err := os.WriteFile(summary, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", summary)

	if writeGolden && !base.quick {
		g := goldenFile{Seed: base.seed, Digests: map[string]map[string]string{}}
		for _, r := range first {
			g.Digests[r.Workload] = r.Digests
		}
		raw, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(base.dir, "golden.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path, "- rebuild before the next run, it is embedded")
		return nil // digests were compared with the file being replaced
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations or checks", failed)
	}
	return nil
}

func countFailed(set []*result) int {
	n := 0
	for _, r := range set {
		n += r.Failed
	}
	return n
}

// compareSets lists every end-to-end metric whose values in the two sets
// differ, either way, by more than the metric's bound.
func compareSets(first, second []*result) []string {
	var moved []string
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			worse := worsening(d, a.Metrics[d.name], b.Metrics[d.name])
			if math.Abs(worse) > d.bound {
				moved = append(moved, fmt.Sprintf("%s %s: %.4f -> %.4f %s, %+.1f%% worse, bound %.0f%%",
					a.Workload, d.name, a.Metrics[d.name], b.Metrics[d.name], d.unit, 100*worse, 100*d.bound))
			}
		}
	}
	return moved
}

// worsening is how much worse got is than ref, as a share of ref, in the
// metric's own direction; negative when it improved.
func worsening(d metricDef, ref, got float64) float64 {
	if ref == 0 {
		return 0
	}
	if d.better == "higher" {
		return (ref - got) / ref
	}
	return (got - ref) / ref
}
