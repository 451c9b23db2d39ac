// Command dmrpc-bench regenerates the paper's evaluation tables and
// figures (§VI) from the simulation.
//
// Usage:
//
//	dmrpc-bench -list
//	dmrpc-bench -experiment fig5a
//	dmrpc-bench -experiment all -scale full
//
// Every experiment prints rows in the same shape the paper plots: systems
// down the side, the swept parameter across, throughput/latency/traffic as
// the measured quantity. EXPERIMENTS.md records the paper-vs-measured
// comparison for each.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("experiment", "all", "experiment id (see -list) or 'all'")
	scaleFlag := flag.String("scale", "quick", "measurement windows: quick | full")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		e.Run(os.Stdout, scale)
		fmt.Printf("[%s finished in %v wall time]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
	} else {
		e, ok := bench.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		run(e)
	}
}
