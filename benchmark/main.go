// Command benchmark measures the live DmRPC stack end to end and layer
// by layer: six named workloads against an in-process K-shard cluster,
// seven end-to-end metrics per workload, a latency ladder that times
// each layer's public entry points from outside, and a traced pass that
// records spans around the calls into each layer. See README.md.
//
//	go run ./benchmark                       every workload, the ladder, the traced pass
//	go run ./benchmark -workload kv4k_read   one workload's end-to-end metrics
//	go run ./benchmark -workload kv4k_read -trace 1   its per-layer metrics
//	go run ./benchmark -ladder               the ladder alone
//	go run ./benchmark -repeat 5             calibration: spread of every end-to-end metric
//
// --seconds and --trace 0|1 are not knobs to tune: they are how whoever
// compares two commits calls the benchmark,
//
//	go run ./benchmark --workload W --seed N --seconds 12 --trace 0|1
//
// with --seconds always BENCHMARK.json's run_seconds, which is also the
// default. A number measured over another window is not comparable.
//
// All traffic is loopback TCP inside one process on a shared host;
// generator, services and shards compete for the same cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "run this workload only (default: all of them, then the ladder and the traced pass)")
	seed := flag.Uint64("seed", 1, "seed for key streams, payload choice and the open-loop schedule")
	seconds := flag.Float64("seconds", runSeconds, "measured window per run, after a warm-up of a sixth of it; records use BENCHMARK.json's run_seconds, the default")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (ladder + traced pass); a number, because the caller passes it as a separate argument")
	ladder := flag.Bool("ladder", false, "run the latency ladder alone")
	repeat := flag.Int("repeat", 0, "calibration: run each workload this many times with consecutive seeds and report quartiles")
	flag.Parse()

	fmt.Printf("# nproc=%d GOMAXPROCS=%d workers=%d seed=%d seconds=%g; loopback only, cluster and driver share the process\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, *seed, *seconds)

	selected := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fatalf("no workload %q", *name)
		}
		selected = []spec{*wl}
	}

	rep := report{metrics: map[string]metricValue{}}
	switch {
	case *ladder:
		rep.ladder(*seed)
		rep.attempted = 1 // the result line wants a count; the ladder has no operations to fail
	case *repeat > 0:
		rep.calibrate(selected, *seed, *seconds, *repeat)
	case *name != "" && *trace == 0:
		rep.endToEnd(&selected[0], *seed, *seconds, "")
	case *name != "":
		// Every per-layer metric from one command: the ladder, then a
		// short untraced window and a traced one of the same length, so
		// the whole run measures for about -seconds.
		wl := &selected[0]
		closure := rep.ladder(*seed)
		base, err := runWorkload(wl, *seed, *seconds/3, false, "")
		check(err)
		rep.absorb(base, "", nil, nil)
		rep.traced(wl, *seed, *seconds/3, base, closure, "")
	default:
		base := map[string]*outcome{}
		for i := range selected {
			base[selected[i].name] = rep.endToEnd(&selected[i], *seed, *seconds, selected[i].name+".")
		}
		closure := rep.ladder(*seed)
		for i := range selected {
			wl := &selected[i]
			rep.traced(wl, *seed, *seconds*tracedShare, base[wl.name], closure, wl.name+".")
		}
	}
	rep.finish()
}

// traceDir receives the traced pass's span files, relative to the
// checkout root the benchmark is run from.
const traceDir = "benchmark/out"

// tracedShare is the traced pass's window as a share of the untraced
// one (5 s of 12 s): long enough for steady per-operation sums, short
// enough that the span buffer and file stay small.
const tracedShare = 5.0 / 12

// report collects what the run prints as its last line: one JSON object
// with the keys correct, attempted, failed and metrics.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add prints the named metrics and files them under prefix+name.
func (r *report) add(prefix string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			r.problems = append(r.problems, fmt.Sprintf("%s%s: not measured", prefix, d.name))
			continue
		}
		fmt.Printf("%-52s %16.4f %s\n", prefix+d.name, v, d.unit)
		r.metrics[prefix+d.name] = metricValue{v, d.unit}
	}
}

func (r *report) absorb(out *outcome, prefix string, defs []metricDef, values map[string]float64) {
	r.attempted += out.attempted
	r.failed += out.failed
	r.problems = append(r.problems, out.problems...)
	if out.shortfall != "" {
		r.problems = append(r.problems, out.shortfall)
	}
	r.add(prefix, defs, values)
}

// endToEnd runs wl untraced and reports its end-to-end metrics.
func (r *report) endToEnd(wl *spec, seed uint64, seconds float64, prefix string) *outcome {
	out, err := runWorkload(wl, seed, seconds, true, "")
	check(err)
	fmt.Printf("## %s: %s\n", wl.name, wl.why)
	r.absorb(out, prefix, endToEnd, out.e2e)
	// Per-layer numbers this window also produced, for the reader; the
	// result line carries the end-to-end metrics only.
	for _, d := range tracedMetrics {
		switch d.name {
		case "driver.cpu_us_per_op", "driver.throughput_decay_frac", "driver.samples", "driver.latency_p99_us", "driver.latency_p999_us":
			fmt.Printf("%-52s %16.4f %s\n", prefix+d.name, out.layer[d.name], d.unit)
		}
	}
	return out
}

// ladder runs the latency ladder, reports its metrics and returns the
// closure ratio, which the traced pass reports beside its own numbers.
func (r *report) ladder(seed uint64) float64 {
	m, err := runLadder(ladderIters, seed)
	check(err)
	printLadder(m)
	r.add("", ladderMetrics(), m)
	return m["driver.ladder_closure_frac"]
}

// traced runs wl's traced pass and reports its per-layer metrics.
// untraced is an untraced window to set the traced one against: the
// difference in throughput is the tracing overhead, and CPU per
// operation is reported from it, free of the tracer's own work.
func (r *report) traced(wl *spec, seed uint64, seconds float64, untraced *outcome, closure float64, prefix string) {
	out, err := runWorkload(wl, seed, seconds, false, traceDir)
	check(err)
	out.layer["driver.trace_overhead_frac"] = 1 - out.e2e["throughput_ops_s"]/untraced.e2e["throughput_ops_s"]
	out.layer["driver.cpu_us_per_op"] = untraced.layer["driver.cpu_us_per_op"]
	out.layer["driver.ladder_closure_frac"] = closure
	fmt.Printf("## %s, traced\n", wl.name)
	r.absorb(out, prefix, tracedMetrics, out.layer)
}

// finish prints the result line and exits non-zero when anything was
// wrong: a failed or unverified operation, a broken invariant, a leak,
// or a generator that could not keep its schedule.
func (r *report) finish() {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	correct := len(r.problems) == 0 && r.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	check(err)
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printLadder prints each rung beside its base and the difference: the
// tax of the layer between them. A rung more than 5% under its base is
// flagged; the ladder is then not a ladder.
func printLadder(m map[string]float64) {
	fmt.Println("## ladder: median ns per op, tax = rung - base")
	fmt.Printf("%-24s %-24s %12s %12s %12s %12s\n", "rung", "base", "ns_4k", "tax_4k", "ns_256k", "tax_256k")
	for _, r := range rungs {
		row := fmt.Sprintf("%-24s %-24s", r.name, r.base)
		for _, sz := range ladderSizes {
			suffix := sz.suffix
			if !r.sized {
				suffix = ""
			}
			ns := m[r.name+".ns"+suffix]
			cell := fmt.Sprintf(" %12.0f %12s", ns, "")
			if r.base != "" {
				tax := ns - m[r.base+".ns"+suffix]
				flag := ""
				if ns < 0.95*m[r.base+".ns"+suffix] {
					flag = "!"
				}
				cell = fmt.Sprintf(" %12.0f %11.0f%1s", ns, tax, flag)
			}
			row += cell
			if !r.sized {
				break
			}
		}
		fmt.Println(strings.TrimRight(row, " "))
	}
}

// calibrate runs each workload n times with consecutive seeds and
// prints, per end-to-end metric, the quartiles and their spread as a
// share of the median, flagging any spread beyond the metric's bound.
// Failed operations, drops and problems of any run make the whole
// calibration incorrect, as they do a single run.
func (r *report) calibrate(selected []spec, seed uint64, seconds float64, n int) {
	for i := range selected {
		wl := &selected[i]
		runs := map[string][]float64{}
		for k := 0; k < n; k++ {
			out, err := runWorkload(wl, seed+uint64(k), seconds, true, "")
			check(err)
			r.absorb(out, "", nil, nil)
			for _, d := range endToEnd {
				runs[d.name] = append(runs[d.name], out.e2e[d.name])
			}
		}
		fmt.Printf("## %s: %d runs, seeds %d..%d\n", wl.name, n, seed, seed+uint64(n)-1)
		fmt.Printf("%-20s %14s %14s %14s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "values")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(runs[d.name])
			spread := (q3 - q1) / q2
			mark := ""
			switch {
			case spread > d.bound:
				mark = " OVER BOUND"
			case spread > d.bound/3:
				mark = " over a third of bound"
			}
			fmt.Printf("%-20s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %.4g%s\n",
				d.name, q1, q2, q3, 100*spread, 100*d.bound, runs[d.name], mark)
		}
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(1)
}
