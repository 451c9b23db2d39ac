package loadgen

import (
	"sort"

	"repro/internal/benchfmt"
)

// Append folds one run into a benchfmt report: a headline result per
// scenario ("dmload/<scenario>") plus one per request class
// ("dmload/<scenario>/<class>"), so the records diff across PRs next to
// the micro-benchmark BENCH_*.json files.
func Append(rep *benchfmt.Report, res RunResult) {
	head := benchfmt.Result{
		Name:       "dmload/" + res.Scenario,
		Iterations: res.Ops,
		NsPerOp:    res.Latency.Mean,
		Extra: map[string]float64{
			"workers":       float64(res.Workers),
			"thr-ops-s":     res.Achieved,
			"offered-ops-s": res.Offered,
			"arrivals-s":    res.Arrivals,
			"late-arrivals": float64(res.Late),
			"p50-ns":        float64(res.Latency.P50),
			"p99-ns":        float64(res.Latency.P99),
			"p999-ns":       float64(res.Latency.P999),
			"errors":        float64(res.Errors),
			"drops":         float64(res.Drops),
			"bytes-s":       float64(res.Bytes) / res.Measure.Seconds(),
		},
	}
	if res.Offered > 0 {
		head.Extra["achieved-frac"] = res.Achieved / res.Offered
	}
	for k, v := range res.Counters {
		head.Extra[k] = v
	}
	rep.Results = append(rep.Results, head)
	classes := make([]string, 0, len(res.Classes))
	for class := range res.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		c := res.Classes[class]
		rep.Results = append(rep.Results, benchfmt.Result{
			Name:       "dmload/" + res.Scenario + "/" + class,
			Iterations: c.Ops,
			NsPerOp:    c.Latency.Mean,
			Extra: map[string]float64{
				"thr-ops-s": float64(c.Ops) / res.Measure.Seconds(),
				"p50-ns":    float64(c.Latency.P50),
				"p99-ns":    float64(c.Latency.P99),
				"p999-ns":   float64(c.Latency.P999),
				"errors":    float64(c.Errors),
				"bytes-s":   float64(c.Bytes) / res.Measure.Seconds(),
			},
		})
	}
}
