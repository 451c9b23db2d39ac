// Command dmload is the cluster load harness: it drives a K-shard
// dmserverd cluster — launched in-process or attached over the network —
// with open-loop (Poisson) or closed-loop load through the paper's
// application scenarios (socialnet, kv, blob) at Zipf-skewed popularity,
// optionally crashing and reviving a shard mid-run, and writes a JSON
// report of every run: achieved and offered rate, arrivals, per-class
// latency percentiles, errors, drops and the pool counters.
//
// Usage:
//
//	dmload -launch 4 -replicas 2 -scenarios socialnet,kv,blob \
//	       -workers 16 -rate 2000 -duration 10s -out load.json
//	dmload -shards host1:7640,host2:7640 -scenarios kv -workers 8
//	dmload -launch 3 -replicas 2 -scenarios kv -kill-shard 1 \
//	       -kill-at 2s -restart-after 3s
//	dmload -launch 3 -replicas 2 -scenarios kv -join-shard -join-at 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/loadgen"
)

func main() { os.Exit(run()) }

// report is what -out receives: when and how the harness ran, then one
// result per scenario.
type report struct {
	Date string              `json:"date"`
	Env  []string            `json:"env"`
	Runs []loadgen.RunResult `json:"runs"`
}

// run drives every scenario, writes the report, and returns the exit
// status: 1 when an operation failed in a run with no fault armed.
func run() int {
	launch := flag.Int("launch", 0, "launch an in-process cluster with this many shards (0 = attach via -shards)")
	shards := flag.String("shards", "", "comma-separated dmserverd addresses to attach to (shard ID = position)")
	pages := flag.Int("pages", 1<<14, "pool pages per launched shard")
	pageSize := flag.Int("pagesize", 4096, "page size per launched shard")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "session lease TTL on launched shards: a client session idle this long is reaped; leasing drives the heartbeats that failure detection needs (0 disables)")
	scenarios := flag.String("scenarios", "socialnet,kv,blob", "comma-separated scenarios to run in order")
	replicas := flag.Int("replicas", 1, "replica factor R for harness sessions")
	workers := flag.Int("workers", 8, "concurrent simulated users per scenario")
	rate := flag.Float64("rate", 0, "offered load in ops/s, Poisson arrivals (0 = closed loop)")
	warmup := flag.Duration("warmup", time.Second, "unrecorded warmup before the measure window")
	duration := flag.Duration("duration", 5*time.Second, "measured window per scenario")
	ramp := flag.Duration("ramp", 0, "linear ramp of the offered rate at run start (open loop)")
	endpoint := flag.String("endpoint", "rr", "worker→endpoint mapping: rr (round-robin) or pin (seeded-random pinning)")
	seed := flag.Uint64("seed", 1, "master seed; workers derive independent streams")
	users := flag.Int("users", 64, "simulated-user population (socialnet authors)")
	keys := flag.Int("keys", 1024, "kv key-space size")
	zipfS := flag.Float64("zipf-s", 0.99, "Zipf skew parameter (0 = uniform)")
	mix := flag.String("mix", "10/60/30", "socialnet compose/read-home/read-user mix, percent (default: the paper's)")
	mediaSize := flag.Int("media-size", 8<<10, "socialnet post-media bytes")
	frontends := flag.Int("frontends", 2, "socialnet frontend movers")
	valueSize := flag.Int("value-size", 4<<10, "kv value bytes")
	readFrac := flag.Float64("read-frac", 0.9, "kv read fraction")
	blobSizes := flag.String("blob-sizes", "65536,262144,1048576", "comma-separated blob payload sweep, bytes")
	hops := flag.Int("hops", 3, "blob chain length")
	cacheBytes := flag.Int64("cache-bytes", 0, "pool-level hot-ref cache budget in bytes for harness sessions (0 disables); hit counters land in the report")
	heartbeat := flag.Duration("heartbeat", 0, "session heartbeat interval (0 = library default)")
	repairEvery := flag.Duration("repair-interval", 0, "replica repair scan pacing (0 = library default)")
	killShard := flag.Int("kill-shard", -1, "crash this shard during each run (needs -launch)")
	killAt := flag.Duration("kill-at", 2*time.Second, "crash offset from run start")
	restartAfter := flag.Duration("restart-after", 2*time.Second, "revive the shard this long after the crash (0 = stay down)")
	joinShard := flag.Bool("join-shard", false, "grow the cluster by one shard during each run (needs -launch); implies -registry")
	joinAt := flag.Duration("join-at", 2*time.Second, "join offset from run start")
	registry := flag.Bool("registry", false, "publish staged refs to the shard-side registry (DESIGN.md §D16 handoff + anti-entropy)")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	flag.Parse()

	env := &loadgen.Env{
		Replicas:  *replicas,
		Seed:      *seed,
		Users:     *users,
		Keys:      *keys,
		ZipfS:     *zipfS,
		MediaSize: *mediaSize,
		Frontends: *frontends,
		ValueSize: *valueSize,
		ReadFrac:  *readFrac,
		Hops:      *hops,
	}
	// Snappy failure-detection profile: a load harness wants ejection,
	// failover and repair to show up inside a seconds-long run, not the
	// conservative service defaults.
	env.Pool.UnhealthyAfter = 2
	env.Pool.RejoinPoll = 200 * time.Millisecond
	env.Pool.RepairInterval = *repairEvery
	env.Pool.CacheBytes = *cacheBytes
	env.Pool.RegistryHandoff = *registry || *joinShard
	env.Pool.Client.HeartbeatInterval = *heartbeat
	if env.Pool.Client.HeartbeatInterval == 0 {
		env.Pool.Client.HeartbeatInterval = 100 * time.Millisecond
	}
	env.Pool.Client.Net.CallTimeout = 500 * time.Millisecond
	env.Pool.Client.Net.AttemptTimeout = 100 * time.Millisecond
	env.Pool.Client.Net.DialTimeout = 100 * time.Millisecond
	switch *endpoint {
	case "rr":
		env.Endpoint = loadgen.RoundRobin
	case "pin":
		env.Endpoint = loadgen.Pinned
	default:
		log.Fatalf("dmload: unknown -endpoint %q (want rr or pin)", *endpoint)
	}
	if _, err := fmt.Sscanf(*mix, "%d/%d/%d", &env.Mix.Compose, &env.Mix.ReadHome, &env.Mix.ReadUser); err != nil {
		log.Fatalf("dmload: bad -mix %q: %v", *mix, err)
	}
	for _, f := range strings.Split(*blobSizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("dmload: bad -blob-sizes entry %q", f)
		}
		env.BlobSizes = append(env.BlobSizes, n)
	}

	var cluster *loadgen.Cluster
	if *launch > 0 {
		scfg := live.ServerConfig{NumPages: *pages, PageSize: *pageSize, LeaseTTL: *leaseTTL}
		c, err := loadgen.Launch(*launch, scfg)
		if err != nil {
			log.Fatal(err)
		}
		cluster = c
		defer cluster.Close()
		env.Shards = c.Addrs
		fmt.Fprintf(os.Stderr, "dmload: launched %d shards x %d pages (%d MiB each)\n",
			*launch, *pages, *pages**pageSize>>20)
	} else {
		if *shards == "" {
			log.Fatal("dmload: need -launch K or -shards addr,addr,...")
		}
		for _, a := range strings.Split(*shards, ",") {
			env.Shards = append(env.Shards, strings.TrimSpace(a))
		}
	}
	env.Defaults()
	defer env.CloseSessions()
	if *killShard >= 0 && cluster == nil {
		log.Fatal("dmload: -kill-shard needs a -launch'ed cluster")
	}
	if *killShard >= len(env.Shards) {
		log.Fatalf("dmload: -kill-shard %d out of range (K=%d)", *killShard, len(env.Shards))
	}
	if *joinShard && cluster == nil {
		log.Fatal("dmload: -join-shard needs a -launch'ed cluster")
	}

	rep := report{Date: time.Now().UTC().Format(time.RFC3339)}
	rep.Env = []string{
		fmt.Sprintf("goos: %s", runtime.GOOS),
		fmt.Sprintf("goarch: %s", runtime.GOARCH),
		fmt.Sprintf("cpus: %d", runtime.NumCPU()),
		fmt.Sprintf("dmload: shards=%d replicas=%d workers=%d rate=%g duration=%s endpoint=%s seed=%d users=%d keys=%d zipf-s=%g mix=%s cache-bytes=%d",
			len(env.Shards), *replicas, *workers, *rate, *duration, *endpoint, *seed, *users, *keys, *zipfS, *mix, *cacheBytes),
	}
	if *killShard >= 0 {
		rep.Env = append(rep.Env, fmt.Sprintf("dmload-fault: kill-shard=%d kill-at=%s restart-after=%s",
			*killShard, *killAt, *restartAfter))
	}
	if *joinShard {
		rep.Env = append(rep.Env, fmt.Sprintf("dmload-fault: join-shard join-at=%s", *joinAt))
	}

	// Failed operations fail the run unless a fault was armed, when some
	// errors are the expected cost of the crash or the join.
	faulted := *killShard >= 0 || *joinShard
	var failed int64
	for _, name := range strings.Split(*scenarios, ",") {
		var s loadgen.Scenario
		switch strings.TrimSpace(name) {
		case "socialnet":
			s = loadgen.SocialNet()
		case "kv":
			s = loadgen.KV()
		case "blob":
			s = loadgen.Blob()
		default:
			log.Fatalf("dmload: unknown scenario %q (want socialnet, kv or blob)", name)
		}
		if err := s.Setup(env); err != nil {
			log.Fatalf("dmload: %s setup: %v", s.Name(), err)
		}
		stop := scheduleFault(cluster, *killShard, *killAt, *restartAfter)
		stopJoin := func() {}
		if *joinShard {
			stopJoin = scheduleJoin(cluster, env, *joinAt)
		}
		res, err := loadgen.Run(s, env, loadgen.RunConfig{
			Workers: *workers,
			Rate:    *rate,
			Warmup:  *warmup,
			Measure: *duration,
			Ramp:    *ramp,
			Seed:    *seed,
		})
		stop()
		stopJoin()
		s.Close()
		if err != nil {
			log.Fatalf("dmload: %s run: %v", name, err)
		}
		printResult(res)
		rep.Runs = append(rep.Runs, res)
		failed += res.Errors
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dmload: wrote %s\n", *out)
	}
	if failed > 0 && !faulted {
		fmt.Fprintf(os.Stderr, "dmload: %d operations failed with no fault armed\n", failed)
		return 1
	}
	return 0
}

// scheduleFault arms the kill/restart timers against the launched
// cluster; the returned stop cancels any not-yet-fired step.
func scheduleFault(c *loadgen.Cluster, shard int, killAt, restartAfter time.Duration) func() {
	if c == nil || shard < 0 {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-time.After(killAt):
		case <-stop:
			return
		}
		fmt.Fprintf(os.Stderr, "dmload: crashing shard %d\n", shard)
		if err := c.Kill(shard); err != nil {
			fmt.Fprintf(os.Stderr, "dmload: kill shard %d: %v\n", shard, err)
			return
		}
		if restartAfter <= 0 {
			return
		}
		select {
		case <-time.After(restartAfter):
		case <-stop:
			return
		}
		fmt.Fprintf(os.Stderr, "dmload: reviving shard %d\n", shard)
		if err := c.Restart(shard); err != nil {
			fmt.Fprintf(os.Stderr, "dmload: restart shard %d: %v\n", shard, err)
		}
	}()
	return func() { close(stop) }
}

// scheduleJoin arms the join-a-shard timer: at joinAt it grows the
// launched cluster by one shard and admits the newcomer to every
// running session, whose rebalancers then migrate remapped refs onto
// it (DESIGN.md §D16). The returned stop cancels a not-yet-fired join
// and waits the goroutine out, so env.Shards is stable again before
// the next scenario's Setup.
func scheduleJoin(c *loadgen.Cluster, env *loadgen.Env, joinAt time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-time.After(joinAt):
		case <-stop:
			return
		}
		i, addr, err := c.Join()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmload: join shard: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "dmload: joining shard %d at %s\n", i, addr)
		if err := env.JoinShard(addr); err != nil {
			fmt.Fprintf(os.Stderr, "dmload: admit shard %d: %v\n", i, err)
			return
		}
		env.Shards = append(env.Shards, addr)
	}()
	return func() {
		close(stop)
		<-done
	}
}

// printResult writes the human-readable per-scenario summary to stderr
// (stdout may be carrying the JSON report).
func printResult(res loadgen.RunResult) {
	fmt.Fprintf(os.Stderr, "%s: %d ops in %s (%.0f ops/s", res.Scenario, res.Ops, res.Measure, res.Achieved)
	if res.Offered > 0 {
		fmt.Fprintf(os.Stderr, ", offered %.0f, arrivals %.0f/s (%d late), drops %d", res.Offered, res.Arrivals, res.Late, res.Drops)
	}
	fmt.Fprintf(os.Stderr, ") errors=%d\n", res.Errors)
	classes := make([]string, 0, len(res.Classes))
	for class := range res.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		c := res.Classes[class]
		fmt.Fprintf(os.Stderr, "  %-10s %8d ops  p50=%-10s p99=%-10s p999=%-10s errors=%d\n",
			class, c.Ops, time.Duration(c.Latency.P50), time.Duration(c.Latency.P99),
			time.Duration(c.Latency.P999), c.Errors)
	}
	keys := make([]string, 0, len(res.Counters))
	for k := range res.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		if v := res.Counters[k]; v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(os.Stderr, "  counters: %s\n", strings.Join(parts, " "))
	}
}
