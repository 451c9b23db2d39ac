package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/liverpc"
)

// The tracing wrapper must keep every capability liverpc probes for,
// or a traced run would silently take different code paths.
var (
	_ liverpc.LocatedDM    = (*tracedDM)(nil)
	_ liverpc.ReplicatedDM = (*tracedDM)(nil)
	_ liverpc.BufDM        = (*tracedDM)(nil)
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func toJSONMetrics(defs []metricDef, bounded bool) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if bounded {
			b := d.bound
			out[i].Bound = &b
		}
	}
	return out
}

// BENCHMARK.json and spec.go must name the same workloads and metrics,
// with the same units, directions and bounds: no drift either way.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if want := toJSONMetrics(endToEnd, true); !reflect.DeepEqual(bj.EndToEnd, want) {
		t.Errorf("end_to_end drifted:\n json %+v\n spec %+v", bj.EndToEnd, want)
	}
	if want := toJSONMetrics(perLayer(), false); !reflect.DeepEqual(bj.PerLayer, want) {
		t.Errorf("per_layer drifted: json has %d metrics, spec %d", len(bj.PerLayer), len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(toJSONMetrics(endToEnd, true), toJSONMetrics(perLayer(), false)...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", n)
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// Every workload, run traced for a 300 ms window, emits exactly the
// end-to-end and traced-pass names, verifies every operation, and
// leaves the cluster's books clean.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		wl := &workloads[i]
		out, err := runWorkload(wl, 1, 0.3, false, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %q", wl.name, out.attempted, out.failed, out.problems)
		}
		if got, want := keys(out.e2e), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end names:\n got  %q\n want %q", wl.name, got, want)
		}
		// The two ratios against other runs are filled in by main.
		out.layer["driver.trace_overhead_frac"] = 0
		out.layer["driver.ladder_closure_frac"] = 0
		if got, want := keys(out.layer), names(tracedMetrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced names:\n got  %q\n want %q", wl.name, got, want)
		}
		if fi, err := os.Stat(dir + "/trace-" + wl.name + ".jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", wl.name, err)
		}
	}
}

func TestLadderEmitsListedMetrics(t *testing.T) {
	m, err := runLadder(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := append(names(ladderMetrics()), "driver.ladder_closure_frac")
	sort.Strings(want)
	if got := keys(m); !reflect.DeepEqual(got, want) {
		t.Errorf("ladder names:\n got  %q\n want %q", got, want)
	}
	positive := []string{"tcp_floor.echo.ns_4k"}
	if _, ok := readProcIO(); ok {
		positive = append(positive, "live.node.call.write_syscalls_4k", "live.node.call.wire_bytes_256k")
	}
	for _, k := range positive {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
}

// The same seed yields the same operations and the same open-loop
// schedule; another seed yields others.
func TestSeedDeterminesInputs(t *testing.T) {
	draw := func(wl *spec, seed uint64) []op {
		st := newOpStream(wl, seed, 0)
		ops := make([]op, 10000)
		for i := range ops {
			ops[i] = st.next()
		}
		return ops
	}
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := draw(wl, 7), draw(wl, 7), draw(wl, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different operations", wl.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same operations", wl.name)
		}
		var classes [3]int
		for _, o := range a {
			classes[o.class]++
			if o.key >= uint64(wl.keys) {
				t.Fatalf("%s: key %d outside %d", wl.name, o.key, wl.keys)
			}
		}
		for c, n := range classes {
			if want := wl.mix[c] * 100; n < want-300 || n > want+300 {
				t.Errorf("%s: class %d drawn %d times of 10000, mix says %d%%", wl.name, c, n, wl.mix[c])
			}
		}
	}
	a, b, c := schedule(7, socialRate, 2*time.Second), schedule(7, socialRate, 2*time.Second), schedule(8, socialRate, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	if n := len(a); n < 2700 || n > 3300 {
		t.Errorf("%d arrivals in 2 s at %d/s", n, socialRate)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("schedule not ascending")
	}
}

// Self time is the parent minus what its children cover, overlaps once,
// clipped to the parent.
func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one inside", []span{{start: 110, end: 130}}, 80},
		{"two disjoint", []span{{start: 110, end: 130}, {start: 150, end: 160}}, 70},
		{"overlapping count once", []span{{start: 110, end: 140}, {start: 130, end: 160}}, 50},
		{"nested count once", []span{{start: 110, end: 160}, {start: 120, end: 130}}, 50},
		{"clipped to the parent", []span{{start: 50, end: 120}, {start: 190, end: 400}}, 70},
		{"outside ignored", []span{{start: 10, end: 90}, {start: 210, end: 300}}, 100},
		{"unsorted", []span{{start: 150, end: 160}, {start: 110, end: 130}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A hand-built trace: two operations, one whose service-tier read is
// linked through the ref key its own stage span carries.
func TestSummarizeLinksByRefKey(t *testing.T) {
	spans := []span{
		{kind: spanOp, start: 0, end: 100, worker: 0},                       // id 1
		{kind: spanStage, start: 5, end: 25, parent: 1, key: 77, worker: 0}, // staged under op 1
		{kind: spanRead, start: 40, end: 70, key: 77, worker: -1},           // service tier, parentless
		{kind: spanFree, start: 80, end: 90, parent: 1, key: 77, worker: 0},
		{kind: spanOp, start: 100, end: 150, worker: 1},             // id 5
		{kind: spanRead, start: 110, end: 120, key: 99, worker: -1}, // unknown key: stays parentless
		{kind: spanFillVerify, start: 130, end: 135, parent: 5, worker: 1},
	}
	got := summarize(spans, 0, 1000)
	want := traceTotals{ops: 2, op: 150, stage: 20, read: 30, free: 10, fillVerify: 5, opSelf: 40 + 45}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if spans[2].parent != 1 || spans[5].parent != 0 {
		t.Errorf("linked parents %d and %d, want 1 and 0", spans[2].parent, spans[5].parent)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}
