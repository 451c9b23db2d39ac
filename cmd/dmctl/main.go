// Command dmctl pokes a live DM server (cmd/dmserverd) from the command
// line: stage data, read it back through a ref, and micro-benchmark the
// real round-trip costs of the protocol.
//
// Usage:
//
//	dmctl -server localhost:7640 stage -text "hello disaggregated world"
//	dmctl -server localhost:7640 bench -size 32768 -n 1000
//	dmctl -server localhost:7640 roundtrip -size 65536
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/liverpc"
	"repro/internal/pool"
	"repro/internal/stats"
)

func main() {
	server := flag.String("server", "localhost:7640", "DM server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// chain deploys its own service processes and DM sessions: one pool
	// session per hop over -server's shard list (one address = one shard).
	if args[0] == "chain" {
		cmdChain(strings.Split(*server, ","), args[1:])
		return
	}
	// pool commands drive the sharded cluster layer: -server lists the
	// shard addresses in shard-ID order.
	if args[0] == "pool" {
		cmdPool(strings.Split(*server, ","), args[1:])
		return
	}

	cl, err := live.Dial(*server)
	exitOn(err)
	defer cl.Close()
	exitOn(cl.Register())

	switch args[0] {
	case "stage":
		cmdStage(cl, args[1:])
	case "roundtrip":
		cmdRoundtrip(cl, args[1:])
	case "bench":
		cmdBench(cl, args[1:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dmctl [-server host:port[,host:port...]] <command>
commands:
  stage     -text <s>           stage a string, print its ref
  roundtrip -size <n>           stage n bytes, read them back, verify
  bench     -size <n> -n <ops>  measure stage/readref/free latency
  chain     -hops <h> -size <n> -n <ops>
                                run the liverpc chain app by value and
                                by ref, every hop on its own pool
                                session over -server (= pool chain)
  pool [-replicas <R>] [-cache-bytes <B>] <subcommand>
                                drive the sharded cluster layer; -server
                                lists shard addresses in shard-ID order,
                                -replicas stages R copies of every
                                payload on its key's ring successors,
                                -cache-bytes enables the hot-ref payload
                                cache (whole-object reads from memory):
    pool stage -text <s>          stage onto a ring-chosen shard, print
                                  the located ref, its shards and its
                                  size as a call arg on the wire
    pool read  -size <n> -n <k>   stage k objects, read each back via its
                                  located ref, print the shard spread
    pool chain -hops <h> -size <n> -n <ops>
                                  the chain command (located refs
                                  end-to-end)
    pool stats -size <n> -n <k> [-json]
                                  run a burst, print aggregate and
                                  per-shard client counters (-json emits
                                  one machine-readable document)
    pool rebalance [-n <k> -size <b>] [-keep] [-json]
                                  stage an optional burst, run one
                                  sync+rebalance pass (adopt handed-off
                                  refs, migrate onto the ring's wanted
                                  placement, reclaim surplus replicas),
                                  print the result and placement audit
    pool registry [-key <k>] [-json]
                                  dump every shard's cluster ref
                                  directory, or query one key across
                                  the shards`)
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmctl:", err)
		os.Exit(1)
	}
}

func cmdStage(cl *live.Client, args []string) {
	fs := flag.NewFlagSet("stage", flag.ExitOnError)
	text := fs.String("text", "hello", "payload to stage")
	fs.Parse(args)
	ref, err := cl.StageRef([]byte(*text))
	exitOn(err)
	fmt.Printf("staged %d bytes as %v (wire form %d bytes)\n", len(*text), ref, len(ref.Marshal()))
}

func cmdRoundtrip(cl *live.Client, args []string) {
	fs := flag.NewFlagSet("roundtrip", flag.ExitOnError)
	size := fs.Int("size", 65536, "payload size")
	fs.Parse(args)
	payload := make([]byte, *size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	start := time.Now()
	ref, err := cl.StageRef(payload)
	exitOn(err)
	staged := time.Since(start)

	got := make([]byte, *size)
	start = time.Now()
	exitOn(cl.ReadRef(ref, 0, got))
	read := time.Since(start)
	for i := range got {
		if got[i] != payload[i] {
			exitOn(fmt.Errorf("verification failed at byte %d", i))
		}
	}
	exitOn(cl.FreeRef(ref))
	fmt.Printf("staged %s in %v, read back in %v, verified\n",
		stats.Bytes(int64(*size)), staged, read)
}

func cmdBench(cl *live.Client, args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	size := fs.Int("size", 32768, "payload size")
	n := fs.Int("n", 1000, "operations")
	fs.Parse(args)
	payload := make([]byte, *size)
	var stage, read, free stats.Histogram
	buf := make([]byte, *size)
	total := time.Now()
	for i := 0; i < *n; i++ {
		t0 := time.Now()
		ref, err := cl.StageRef(payload)
		exitOn(err)
		stage.Record(time.Since(t0).Nanoseconds())

		t0 = time.Now()
		exitOn(cl.ReadRef(ref, 0, buf))
		read.Record(time.Since(t0).Nanoseconds())

		t0 = time.Now()
		exitOn(cl.FreeRef(ref))
		free.Record(time.Since(t0).Nanoseconds())
	}
	elapsed := time.Since(total)
	fmt.Printf("%d ops of %s over real TCP in %v (%.0f cycles/s)\n",
		*n, stats.Bytes(int64(*size)), elapsed.Round(time.Millisecond),
		float64(*n)/elapsed.Seconds())
	fmt.Printf("stage:    %s\n", stage.Summarize())
	fmt.Printf("read_ref: %s\n", read.Summarize())
	fmt.Printf("free_ref: %s\n", free.Summarize())
}

// cmdChain runs the liverpc chain application (paper Fig 5), once passing
// the payload by value through every hop and once passing it by
// reference, then prints the side-by-side latencies. Each hop opens its
// own pool session over the shard list (K=1 for one address), so refs
// travel as located call args and each stage is ring-routed.
func cmdChain(addrs []string, args []string) {
	fs := flag.NewFlagSet("chain", flag.ExitOnError)
	hops := fs.Int("hops", 3, "chain length (services)")
	size := fs.Int("size", 65536, "payload size in bytes")
	n := fs.Int("n", 200, "calls per mode")
	fs.Parse(args)

	payload := make([]byte, *size)
	apps.FillPayload(payload, uint64(*size))
	want := apps.Aggregate(payload)

	session := func() (liverpc.DM, error) {
		p, err := pool.Dial(pool.Config{Shards: addrs})
		if err != nil {
			return nil, err
		}
		if err := p.Register(); err != nil {
			p.Close()
			return nil, err
		}
		return p, nil
	}
	run := func(mode string, cfg liverpc.Config) *stats.Histogram {
		d, err := liverpc.DeployChainWith(*hops, session, cfg)
		exitOn(err)
		defer d.Close()
		var h stats.Histogram
		for i := 0; i < *n; i++ {
			t0 := time.Now()
			got, err := d.Client.Do(payload)
			exitOn(err)
			h.Record(time.Since(t0).Nanoseconds())
			if got != want {
				exitOn(fmt.Errorf("%s chain returned sum %d, want %d", mode, got, want))
			}
		}
		fmt.Printf("%-8s  %s\n", mode, h.Summarize())
		return &h
	}

	fmt.Printf("chain over %d shard(s): %d hops, %s payload, %d calls per mode\n",
		len(addrs), *hops, stats.Bytes(int64(*size)), *n)
	val := run("by-value", liverpc.Config{ForceInline: true})
	ref := run("by-ref", liverpc.Config{})
	vm, rm := val.Mean(), ref.Mean()
	switch {
	case rm < vm:
		fmt.Printf("by-ref wins: %.2fx faster at this size\n", vm/rm)
	default:
		fmt.Printf("by-value wins: %.2fx faster at this size (payload below crossover)\n", rm/vm)
	}
}

// cmdPool dispatches the sharded-cluster subcommands. Pool-level flags
// (before the subcommand) shape the client every subcommand shares:
//
//	dmctl -server a,b,c pool -replicas 2 stats -n 500
//
// Every subcommand registers one pool client over the shard list
// (shard ID = position).
func cmdPool(addrs []string, args []string) {
	fs := flag.NewFlagSet("pool", flag.ExitOnError)
	replicas := fs.Int("replicas", 1, "replica factor R: copies of every staged payload, placed on the R ring successors of its key")
	cacheBytes := fs.Int64("cache-bytes", 0, "pool-level hot-ref cache budget in bytes (0 disables); whole-object reads hit memory before any shard RPC")
	registry := fs.Bool("registry", false, "publish staged refs to the shard-side cluster registry, so they survive this session and other sessions can adopt them (DESIGN.md §D16)")
	fs.Parse(args)
	args = fs.Args()
	if len(args) == 0 {
		usage()
	}
	if args[0] == "chain" {
		cmdChain(addrs, args[1:])
		return
	}
	// The registry and rebalance subcommands only make sense with the
	// registry machinery on; flip it for them regardless of -registry.
	handoff := *registry || args[0] == "registry" || args[0] == "rebalance"
	p, err := pool.Dial(pool.Config{Shards: addrs, ReplicaFactor: *replicas, CacheBytes: *cacheBytes, RegistryHandoff: handoff})
	exitOn(err)
	defer p.Close()
	exitOn(p.Register())
	switch args[0] {
	case "stage":
		cmdPoolStage(p, args[1:])
	case "read":
		cmdPoolRead(p, args[1:])
	case "stats":
		cmdPoolStats(p, args[1:])
	case "rebalance":
		cmdPoolRebalance(p, args[1:])
	case "registry":
		cmdPoolRegistry(p, args[1:])
	default:
		usage()
	}
}

func cmdPoolStage(p *pool.Client, args []string) {
	fs := flag.NewFlagSet("pool stage", flag.ExitOnError)
	text := fs.String("text", "hello", "payload to stage")
	fs.Parse(args)
	ref, err := p.StageRef([]byte(*text))
	exitOn(err)
	// The payload liverpc would pass for this ref, and its envelope size.
	arg := liverpc.ByRef(ref, p.Replicas(ref))
	shards := arg.Replicas()
	if shards == nil {
		shards = []uint32{ref.Server}
	}
	fmt.Printf("staged %d bytes on shards %v as %v (located call arg, %d bytes on the wire)\n",
		len(*text), shards, ref, arg.WireSize())
}

func cmdPoolRead(p *pool.Client, args []string) {
	fs := flag.NewFlagSet("pool read", flag.ExitOnError)
	size := fs.Int("size", 32768, "payload size per object")
	n := fs.Int("n", 64, "objects to stage and read back")
	fs.Parse(args)
	payload := make([]byte, *size)
	apps.FillPayload(payload, uint64(*size))
	perShard := make(map[uint32]int)
	buf := make([]byte, *size)
	start := time.Now()
	for i := 0; i < *n; i++ {
		ref, err := p.StageRef(payload)
		exitOn(err)
		perShard[ref.Server]++
		exitOn(p.ReadRef(ref, 0, buf))
		for j := range buf {
			if buf[j] != payload[j] {
				exitOn(fmt.Errorf("object %d corrupt at byte %d", i, j))
			}
		}
		exitOn(p.FreeRef(ref))
	}
	elapsed := time.Since(start)
	fmt.Printf("%d objects of %s staged+read+verified across %d shards in %v\n",
		*n, stats.Bytes(int64(*size)), p.Shards(), elapsed.Round(time.Millisecond))
	for id := uint32(0); int(id) < p.Shards(); id++ {
		fmt.Printf("  shard %d: %d objects\n", id, perShard[id])
	}
	fmt.Printf("healthy shards: %v\n", p.Healthy())
}

// cmdPoolRebalance stages an optional burst, then triggers one
// synchronous sync+rebalance pass and prints what it did: refs
// migrated onto their wanted ring placement, surplus replicas
// reclaimed, and the placement audit (off_placement 0 = converged).
// With the registry machinery on, the sync half first adopts any
// directory entries other sessions handed off to the shards.
func cmdPoolRebalance(p *pool.Client, args []string) {
	fs := flag.NewFlagSet("pool rebalance", flag.ExitOnError)
	size := fs.Int("size", 32768, "payload size per staged object")
	n := fs.Int("n", 0, "objects to stage before rebalancing (0 = rebalance what's already there)")
	keep := fs.Bool("keep", false, "leave staged objects behind (registry handoff keeps them alive for other sessions)")
	asJSON := fs.Bool("json", false, "emit the result as one JSON document")
	fs.Parse(args)
	payload := make([]byte, *size)
	apps.FillPayload(payload, uint64(*size))
	var staged []dm.Ref
	for i := 0; i < *n; i++ {
		ref, err := p.StageRef(payload)
		exitOn(err)
		staged = append(staged, ref)
	}
	res := p.Rebalance()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(res))
	} else {
		fmt.Printf("rebalance: migrated_refs=%d migrated_bytes=%d reclaimed_replicas=%d repairs_done=%d errors=%d\n",
			res.MigratedRefs, res.MigratedBytes, res.ReclaimedReplicas, res.RepairsDone, res.Errors)
		fmt.Printf("placement: tracked_refs=%d off_placement=%d under_replicated=%d healthy=%v\n",
			res.TrackedRefs, res.OffPlacement, p.UnderReplicated(), p.Healthy())
	}
	if !*keep {
		for _, ref := range staged {
			exitOn(p.FreeRef(ref))
		}
	}
}

// cmdPoolRegistry dumps the shard-side cluster ref directory — every
// shard's authoritative slice, paged over the anti-entropy sync RPC —
// or, with -key, queries each shard for one entry.
func cmdPoolRegistry(p *pool.Client, args []string) {
	fs := flag.NewFlagSet("pool registry", flag.ExitOnError)
	key := fs.Uint64("key", 0, "query this cluster key instead of dumping everything")
	asJSON := fs.Bool("json", false, "emit the dump as one JSON document")
	fs.Parse(args)
	type regRow struct {
		Shard    uint32   `json:"shard"`
		Key      uint64   `json:"key"`
		Size     int64    `json:"size"`
		Epoch    uint64   `json:"epoch"`
		Replicas []uint32 `json:"replicas"`
	}
	var rows []regRow
	for id := uint32(0); int(id) < p.Shards(); id++ {
		if *key != 0 {
			ent, err := p.RegistryLookup(id, *key)
			if err != nil {
				continue // no entry on this shard (or shard down)
			}
			rows = append(rows, regRow{id, ent.Key, ent.Size, ent.Epoch, ent.Replicas})
			continue
		}
		after := uint64(0)
		for {
			page, err := p.RegistryEntries(id, after, dmwire.MaxRegSyncEntries)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dmctl: shard %d registry: %v\n", id, err)
				break
			}
			for _, ent := range page {
				rows = append(rows, regRow{id, ent.Key, ent.Size, ent.Epoch, ent.Replicas})
			}
			if len(page) < dmwire.MaxRegSyncEntries {
				break
			}
			after = page[len(page)-1].Key
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(rows))
		return
	}
	if len(rows) == 0 {
		fmt.Println("registry: no entries")
		return
	}
	for _, r := range rows {
		fmt.Printf("shard %d: key=%#x size=%d epoch=%d replicas=%v\n",
			r.Shard, r.Key, r.Size, r.Epoch, r.Replicas)
	}
}

// poolStatsDoc is the `pool stats -json` document: the same counters the
// human-readable print shows, in a machine-diffable shape (latencies in
// nanoseconds) so scripts and the load harness can consume them.
type poolStatsDoc struct {
	Aggregate   poolCounters    `json:"aggregate"`
	Shards      []poolShardDoc  `json:"shards"`
	Sessions    map[string]int  `json:"sessions"` // addr -> consecutive heartbeat failures
	Replication *poolReplicaDoc `json:"replication,omitempty"`
	Cache       *poolCacheDoc   `json:"cache,omitempty"`
	Healthy     []uint32        `json:"healthy_shards"`
}

// poolCacheDoc is the pool-level hot-ref cache section (§D15), present
// only when -cache-bytes enabled it.
type poolCacheDoc struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Admits        int64   `json:"admits"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Coalesced     int64   `json:"coalesced"`
	Bytes         int64   `json:"bytes"`
	Entries       int64   `json:"entries"`
	HitRate       float64 `json:"hit_rate"`
}

type poolCounters struct {
	Calls             int64 `json:"calls"`
	Retries           int64 `json:"retries"`
	Failures          int64 `json:"failures"`
	Timeouts          int64 `json:"timeouts"`
	TransportErrors   int64 `json:"transport_errors"`
	HeartbeatFailures int64 `json:"heartbeat_failures"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheAdmits       int64 `json:"cache_admits"`
	CacheEvictions    int64 `json:"cache_evictions"`
	CacheInvalidation int64 `json:"cache_invalidations"`
	CacheCoalesced    int64 `json:"cache_coalesced"`
	P50Ns             int64 `json:"p50_ns"`
	P99Ns             int64 `json:"p99_ns"`
	P999Ns            int64 `json:"p999_ns"`
}

type poolShardDoc struct {
	ID uint32 `json:"id"`
	poolCounters
}

type poolReplicaDoc struct {
	R                 int                `json:"r"`
	TrackedRefs       int                `json:"tracked_refs"`
	UnderReplicated   int                `json:"under_replicated"`
	FailoverReads     int64              `json:"failover_reads"`
	RepairsDone       int64              `json:"repairs_done"`
	RepairErrors      int64              `json:"repair_errors"`
	RepairBytes       int64              `json:"repair_bytes"`
	MigratedRefs      int64              `json:"migrated_refs"`
	MigratedBytes     int64              `json:"migrated_bytes"`
	ReclaimedReplicas int64              `json:"reclaimed_replicas"`
	Shards            []pool.ReplicaStat `json:"shards"`
}

func poolCountersOf(st live.Stats, lat stats.Summary) poolCounters {
	return poolCounters{
		Calls:             st.Calls,
		Retries:           st.Retries,
		Failures:          st.Failures,
		Timeouts:          st.Timeouts,
		TransportErrors:   st.TransportErrors,
		HeartbeatFailures: st.HeartbeatFailures,
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
		CacheAdmits:       st.CacheAdmits,
		CacheEvictions:    st.CacheEvictions,
		CacheInvalidation: st.CacheInvalidations,
		CacheCoalesced:    st.CacheCoalesced,
		P50Ns:             lat.P50,
		P99Ns:             lat.P99,
		P999Ns:            lat.P999,
	}
}

func cmdPoolStats(p *pool.Client, args []string) {
	fs := flag.NewFlagSet("pool stats", flag.ExitOnError)
	size := fs.Int("size", 32768, "payload size per op")
	n := fs.Int("n", 200, "stage/read/free cycles to run")
	asJSON := fs.Bool("json", false, "emit one machine-readable JSON document instead of text")
	fs.Parse(args)
	payload := make([]byte, *size)
	buf := make([]byte, *size)
	for i := 0; i < *n; i++ {
		ref, err := p.StageRef(payload)
		exitOn(err)
		exitOn(p.ReadRef(ref, 0, buf))
		if p.CacheEnabled() {
			// A second read of the same ref: the first populated the
			// hot-ref cache, so this one should hit — making the cache
			// counters below meaningful.
			exitOn(p.ReadRef(ref, 0, buf))
		}
		exitOn(p.FreeRef(ref))
	}
	agg := p.Stats()
	lat := p.Latency()
	shardLat := p.ShardLatency()
	shardStats := p.ShardStats()

	if *asJSON {
		doc := poolStatsDoc{
			Aggregate: poolCountersOf(agg, lat),
			Sessions:  p.SessionHealth(),
			Healthy:   p.Healthy(),
		}
		for id, st := range shardStats {
			doc.Shards = append(doc.Shards, poolShardDoc{
				ID:           uint32(id),
				poolCounters: poolCountersOf(st, shardLat[id]),
			})
		}
		if p.ReplicaFactorEffective() > 1 {
			doc.Replication = &poolReplicaDoc{
				R:                 p.ReplicaFactorEffective(),
				TrackedRefs:       p.TrackedRefs(),
				UnderReplicated:   p.UnderReplicated(),
				FailoverReads:     p.FailoverReads(),
				RepairsDone:       p.RepairsDone(),
				RepairErrors:      p.RepairErrors(),
				RepairBytes:       p.RepairBytes(),
				MigratedRefs:      p.MigratedRefs(),
				MigratedBytes:     p.MigratedBytes(),
				ReclaimedReplicas: p.ReclaimedReplicas(),
				Shards:            p.ReplicaStats(),
			}
		}
		if p.CacheEnabled() {
			cs := p.CacheStats()
			doc.Cache = &poolCacheDoc{
				Hits:          cs.Hits,
				Misses:        cs.Misses,
				Admits:        cs.Admits,
				Evictions:     cs.Evictions,
				Invalidations: cs.Invalidations,
				Coalesced:     cs.Coalesced,
				Bytes:         cs.Bytes,
				Entries:       cs.Entries,
				HitRate:       hitRate(cs.Hits, cs.Misses),
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(doc))
		return
	}

	fmt.Printf("aggregate: calls=%d retries=%d failures=%d timeouts=%d transport_errors=%d heartbeat_failures=%d p50=%s p99=%s\n",
		agg.Calls, agg.Retries, agg.Failures, agg.Timeouts, agg.TransportErrors,
		agg.HeartbeatFailures, stats.Dur(lat.P50), stats.Dur(lat.P99))
	for id, st := range shardStats {
		fmt.Printf("  shard %d: calls=%d retries=%d failures=%d timeouts=%d transport_errors=%d heartbeat_failures=%d p50=%s p99=%s\n",
			id, st.Calls, st.Retries, st.Failures, st.Timeouts, st.TransportErrors,
			st.HeartbeatFailures, stats.Dur(shardLat[id].P50), stats.Dur(shardLat[id].P99))
	}
	for addr, consec := range p.SessionHealth() {
		fmt.Printf("  session %s: consecutive heartbeat failures %d\n", addr, consec)
	}
	if p.ReplicaFactorEffective() > 1 {
		fmt.Printf("replication: R=%d tracked_refs=%d under_replicated=%d failover_reads=%d repairs_done=%d repair_errors=%d repair_bytes=%d\n",
			p.ReplicaFactorEffective(), p.TrackedRefs(), p.UnderReplicated(),
			p.FailoverReads(), p.RepairsDone(), p.RepairErrors(), p.RepairBytes())
		fmt.Printf("migration: migrated_refs=%d migrated_bytes=%d reclaimed_replicas=%d\n",
			p.MigratedRefs(), p.MigratedBytes(), p.ReclaimedReplicas())
		for _, st := range p.ReplicaStats() {
			fmt.Printf("  shard %d: healthy=%v refs_primary=%d refs_replica=%d failover_reads=%d repairs_in=%d\n",
				st.Shard, st.Healthy, st.RefsPrimary, st.RefsReplica, st.FailoverReads, st.RepairsIn)
		}
	}
	if p.CacheEnabled() {
		cs := p.CacheStats()
		fmt.Printf("cache: hits=%d misses=%d hit_rate=%.2f admits=%d evictions=%d invalidations=%d coalesced=%d bytes=%d entries=%d\n",
			cs.Hits, cs.Misses, hitRate(cs.Hits, cs.Misses),
			cs.Admits, cs.Evictions, cs.Invalidations, cs.Coalesced, cs.Bytes, cs.Entries)
	}
}

// hitRate is hits/(hits+misses), 0 when no lookups ran.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
