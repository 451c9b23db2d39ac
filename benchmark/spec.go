package main

import "time"

// Fixed shape of every run. These are constants, not flags: a number a
// later PR compares against must come from the same offered load, the
// same concurrency and the same window layout.
const (
	// workers is the closed-loop concurrency and the open-loop worker
	// pool: the reference host has two cores, shared by generator,
	// services and shards.
	workers = 2
	// runSeconds is the measured window, BENCHMARK.json's run_seconds.
	// Whoever runs the benchmark for a record passes exactly this as
	// --seconds (or nothing); the tests pass less to stay short.
	runSeconds = 12
	// warmupFrac of the measured window runs unrecorded first (2 s of
	// 12 s), so caches, connection state and the Go heap settle.
	warmupFrac = 1.0 / 6
	// setupReps is how many times a run sets up; setup_s is the median.
	// One set-up per process is not steady enough to bound: the first in a
	// fresh process read 73, 116 and 145 ms on three kv4k_read runs.
	setupReps = 9
	// socialRate is socialnet_mix's offered load in ops/s: about a
	// quarter of the 5.9 K ops/s the reference host sustains closed-loop,
	// so the workload sits below saturation. At half (3000) the two
	// workers queue and latency_p90_us moved by 30% between identical
	// runs; at a quarter it moves by 2%.
	socialRate = 1500
	// maxOutstanding bounds the open-loop arrival queue; an arrival that
	// finds it full is dropped and counted as a failed operation.
	maxOutstanding = 4096
	// minAchieved is the share of the offered rate an open-loop run must
	// complete when nothing was dropped and nothing failed; below it the
	// generator, not the system, was the bottleneck and the run fails.
	minAchieved = 0.97
	// ladderIters is the measured iteration count per ladder rung and
	// size; a fifth as many run unrecorded first.
	ladderIters = 2000
)

// Request classes. One op stream serves every workload: the class is
// drawn from the workload's percent mix.
const (
	classRead    = iota // kv read / socialnet read-home
	classWrite          // kv stage+free / chain request / socialnet compose
	classReadAlt        // socialnet read-user
)

// appKind selects the driver a workload runs.
type appKind int

const (
	appKV appKind = iota
	appChain
	appSocial
)

// spec is one named traffic mix against one cluster shape.
type spec struct {
	name string
	why  string
	app  appKind

	shards     int   // K
	replicas   int   // R
	registry   bool  // pool.Config.RegistryHandoff
	cacheBytes int64 // pool.Config.CacheBytes per session
	pages      int   // 4 KiB pages per shard

	keys    int // kv key space / socialnet users
	size    int // kv value / chain payload / socialnet media bytes
	mix     [3]int
	zipf    float64
	byValue bool    // liverpc.Config.ForceInline
	rate    float64 // open-loop offered ops/s; 0 = closed loop
}

const (
	pages64M  = 64 << 20 / 4096
	pages256M = 256 << 20 / 4096
)

var workloads = []spec{
	{
		name: "kv4k_read",
		why:  "4 KiB Zipf reads straight on pool.Client, cache off: per-message cost in dmwire, live.node, live.client and pool routing dominates",
		app:  appKV, shards: 2, replicas: 1, pages: pages64M,
		keys: 4096, size: 4 << 10, mix: [3]int{95, 5, 0}, zipf: 0.99,
	},
	{
		name: "kv4k_write_r2",
		why:  "half stage+free at R=2 with registry handoff: the same layers the other way round, so a read gain paid for on the write path shows",
		app:  appKV, shards: 3, replicas: 2, registry: true, pages: pages64M,
		keys: 4096, size: 4 << 10, mix: [3]int{50, 50, 0}, zipf: 0.99,
	},
	{
		name: "kv64k_hot_cached",
		why:  "64 KiB Zipf reads, 16 MiB working set against an 8 MiB cache: refcache hits, admission and epoch invalidation do the work, the wire little",
		app:  appKV, shards: 2, replicas: 1, cacheBytes: 8 << 20, pages: pages64M,
		keys: 256, size: 64 << 10, mix: [3]int{99, 1, 0}, zipf: 0.99,
	},
	{
		name: "chain32k_byref",
		why:  "3-hop liverpc chain, 32 KiB staged by reference: stage, envelope, dispatch and fetch-at-consumer, the paper's Fig 5 path",
		app:  appChain, shards: 2, replicas: 1, pages: pages64M,
		keys: 1, size: 32 << 10, mix: [3]int{0, 100, 0},
	},
	{
		name: "chain32k_byvalue",
		why:  "the same chain with ForceInline: the pass-by-value comparator, and the bypass workload for every DM-path change",
		app:  appChain, shards: 2, replicas: 1, pages: pages64M,
		keys: 1, size: 32 << 10, mix: [3]int{0, 100, 0}, byValue: true,
	},
	{
		name: "socialnet_mix",
		why:  "open loop at 1500 ops/s, 60/30/10 compose/read-home/read-user with 8 KiB media: many small RPC hops around a by-ref payload, below saturation",
		app:  appSocial, shards: 2, replicas: 1, cacheBytes: 4 << 20, pages: pages256M,
		keys: 64, size: 8 << 10, mix: [3]int{30, 60, 10}, zipf: 0.99, rate: socialRate,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported number. bound is the end-to-end
// regression bound (share of the parent's median); per-layer metrics
// carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json repeats them; benchmark_test.go fails on
// drift either way. The numbers behind the bounds are in the README
// (Steadiness). The timed ones sit at 25%, the most a bound may be, not
// the issue's 10%: the shared host runs 10-15% faster or slower for
// minutes at a time, which put kv4k_write_r2's throughput spread over
// ten runs at 12% in one set and chain32k_byref's at 19% in the next.
// The allocation counts do not depend on speed; their bounds are three
// times their widest spreads (1.4% and 1.9%, from a cache hit rate and
// a read/write mix that move with the seed).
//
// Two of the issue's nine are per-layer instead, as the issue rules for
// a metric that cannot meet a bound: failed_frac, whose healthy value is
// 0 (a share of 0 bounds nothing; the result line's failed count and the
// exit code keep "any increase fails"), and cpu_us_per_op, which on
// socialnet_mix flips between about 200 and 300 us within a run whatever
// the code does, a 23% spread. They are driver.failed_frac and
// driver.cpu_us_per_op.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.06},
	{"setup_s", "s", "lower", 0.25},
}

// rung is one step of the latency ladder. base names the rung whose
// time it should not undercut; the difference is the layer's tax.
type rung struct {
	name  string
	base  string
	sized bool // measured at 4 KiB and 256 KiB; else size-independent
	bytes bool // also reports alloc_bytes
	wire  bool // also reports wire_bytes and write_syscalls
}

var rungs = []rung{
	{name: "tcp_floor.echo", sized: true},
	{name: "dmwire.envelope"},
	{name: "live.node.call", base: "tcp_floor.echo", sized: true, wire: true},
	{name: "live.client.stage", base: "live.node.call", sized: true, bytes: true, wire: true},
	{name: "live.client.readlease", base: "live.node.call", sized: true, bytes: true},
	{name: "live.client.readref", base: "live.client.readlease", sized: true, bytes: true},
	{name: "pool.stage_r1", base: "live.client.stage", sized: true},
	{name: "pool.readref_r1", base: "live.client.readref", sized: true},
	{name: "pool.stage_r2", base: "pool.stage_r1", sized: true, wire: true},
	{name: "registry.stage_r2", base: "pool.stage_r2", sized: true},
	{name: "refcache.hit", sized: true},
	{name: "refcache.miss", base: "pool.readref_r1", sized: true},
	{name: "liverpc.call_empty"},
	{name: "liverpc.call_byvalue", base: "live.node.call", sized: true},
	{name: "liverpc.call_byref", base: "liverpc.call_byvalue", sized: true, bytes: true, wire: true},
}

var ladderSizes = []struct {
	suffix string
	bytes  int
}{{"_4k", 4 << 10}, {"_256k", 256 << 10}}

// ladderMetrics expands the rungs into their metric definitions.
func ladderMetrics() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		suffixes := []string{""}
		if r.sized {
			suffixes = []string{ladderSizes[0].suffix, ladderSizes[1].suffix}
		}
		kinds := []struct{ stem, unit string }{{"ns", "ns"}, {"allocs", "count"}}
		if r.bytes {
			kinds = append(kinds, struct{ stem, unit string }{"alloc_bytes", "bytes"})
		}
		if r.wire {
			kinds = append(kinds,
				struct{ stem, unit string }{"wire_bytes", "bytes"},
				struct{ stem, unit string }{"write_syscalls", "count"})
		}
		for _, k := range kinds {
			for _, s := range suffixes {
				out = append(out, metricDef{name: r.name + "." + k.stem + s, unit: k.unit, better: "lower"})
			}
		}
	}
	return out
}

// tracedMetrics are the per-layer numbers of one workload's traced pass.
var tracedMetrics = []metricDef{
	{name: "apps.fill_verify_us_per_op", unit: "us", better: "lower"},
	{name: "pool.stage_us_per_op", unit: "us", better: "lower"},
	{name: "pool.read_us_per_op", unit: "us", better: "lower"},
	{name: "pool.free_us_per_op", unit: "us", better: "lower"},
	{name: "liverpc.call_us_per_op", unit: "us", better: "lower"},
	{name: "live.client.calls_per_op", unit: "count", better: "lower"},
	{name: "live.client.retries", unit: "count", better: "lower"},
	{name: "live.client.timeouts", unit: "count", better: "lower"},
	{name: "live.client.failures", unit: "count", better: "lower"},
	{name: "live.node.frames_per_op", unit: "count", better: "lower"},
	{name: "live.node.group_commit_factor", unit: "ratio", better: "higher"},
	{name: "live.node.write_syscalls_per_op", unit: "count", better: "lower"},
	{name: "live.node.wire_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "pool.failover_reads", unit: "count", better: "lower"},
	{name: "pool.under_replicated", unit: "count", better: "lower"},
	{name: "refcache.hit_rate", unit: "ratio", better: "higher"},
	{name: "refcache.evictions_per_op", unit: "count", better: "lower"},
	{name: "refcache.invalidations_per_op", unit: "count", better: "lower"},
	{name: "live.server.free_pages_leaked", unit: "count", better: "lower"},
	{name: "live.server.leased_bufs_leaked", unit: "count", better: "lower"},
	{name: "driver.latency_p99_us", unit: "us", better: "lower"},
	{name: "driver.latency_p999_us", unit: "us", better: "lower"},
	{name: "driver.samples", unit: "count", better: "higher"},
	{name: "driver.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "driver.failed_frac", unit: "ratio", better: "lower"},
	{name: "driver.throughput_decay_frac", unit: "ratio", better: "lower"},
	{name: "driver.gen_lag_p99_us", unit: "us", better: "lower"},
	{name: "driver.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "driver.ladder_closure_frac", unit: "ratio", better: "higher"},
}

// perLayer is every per-layer metric: the ladder, then the traced pass.
func perLayer() []metricDef { return append(ladderMetrics(), tracedMetrics...) }

// window splits a measured-seconds budget into warm-up and measure.
func window(seconds float64) (warm, measure time.Duration) {
	measure = time.Duration(seconds * float64(time.Second))
	return time.Duration(float64(measure) * warmupFrac), measure
}
