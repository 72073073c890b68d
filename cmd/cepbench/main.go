// Command cepbench reproduces the paper's evaluation figures.
//
// Usage:
//
//	cepbench -list              list available experiments
//	cepbench -fig fig4          run one experiment
//	cepbench -all               run every experiment
//	cepbench -quick ...         quarter-scale streams (fast smoke runs)
//	cepbench -seed 7 ...        offset all generator seeds
//
// Engine benchmark-regression harness (docs/PERFORMANCE.md):
//
//	cepbench -engine-bench                                  measure and print
//	cepbench -engine-bench -bench-out BENCH_engine.json     record a baseline
//	cepbench -engine-bench -bench-compare BENCH_engine.json gate vs baseline
//
// The serving path (runtime, WAL, NDJSON) is measured through the real
// cepserved by the benchmark under bench/ (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cepshed/internal/experiments"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		fig   = flag.String("fig", "", "experiment id to run (e.g. fig4)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "quarter-scale streams")
		seed  = flag.Int64("seed", 0, "generator seed offset")
		csv   = flag.Bool("csv", false, "emit panels as CSV instead of tables")

		engineBench  = flag.Bool("engine-bench", false, "measure Engine.Process on the canonical workloads")
		benchOut     = flag.String("bench-out", "", "with -engine-bench: write the result as a JSON baseline")
		benchCompare = flag.String("bench-compare", "", "with -engine-bench: gate against a JSON baseline")
		profileShed  = flag.String("profile-shed", "", "record a CPU profile of an overloaded async-planner run to this file")
	)
	flag.Parse()
	emitCSV = *csv

	if *profileShed != "" {
		os.Exit(runProfileShed(*profileShed))
	}
	if *engineBench {
		os.Exit(runEngineBench(*benchOut, *benchCompare))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	switch {
	case *all:
		for _, e := range experiments.All() {
			runOne(e, opts)
		}
	case *fig != "":
		e, ok := experiments.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "cepbench: unknown experiment %q (try -list)\n", *fig)
			os.Exit(2)
		}
		runOne(e, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

var emitCSV bool

func runOne(e experiments.Experiment, opts experiments.Options) {
	if !emitCSV {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
	}
	start := time.Now()
	tables := e.Run(opts)
	for _, t := range tables {
		if emitCSV {
			t.PrintCSV(os.Stdout)
		} else {
			t.Print(os.Stdout)
		}
	}
	if !emitCSV {
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
