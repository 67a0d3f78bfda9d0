// Command vitabench runs Vita's reproduction experiments (E1-E10 and the
// ablations A1, A3 and A4 of internal/experiments) and prints one table per
// experiment.
//
// Usage:
//
//	vitabench                 # run everything
//	vitabench -only E3,E5     # run selected experiments
//	vitabench -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vita/internal/experiments"
)

func main() {
	var (
		seed = flag.Uint64("seed", 42, "random seed shared by all experiments")
		only = flag.String("only", "", "comma-separated experiment IDs (e.g. E3,E5,A1)")
	)
	flag.Parse()

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[strings.ToUpper(id)] = true
		}
	}

	failed := 0
	for _, exp := range experiments.All() {
		if len(selected) > 0 && !selected[exp.ID] {
			continue
		}
		tbl, err := exp.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s) FAILED: %v\n", exp.ID, exp.Name, err)
			failed++
			continue
		}
		fmt.Println(tbl.String())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
