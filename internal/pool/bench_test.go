package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/live"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchCluster spins up k in-process shards and a registered pool.
func benchCluster(b *testing.B, k int) ([]*live.Server, *Client) {
	return benchClusterCfg(b, k, Config{})
}

// benchClusterCfg is benchCluster with explicit pool configuration
// (replica factor, repair pacing).
func benchClusterCfg(b *testing.B, k int, pcfg Config) ([]*live.Server, *Client) {
	b.Helper()
	cfg := live.ServerConfig{NumPages: 4096, PageSize: 4096}
	addrs := make([]string, k)
	srvs := make([]*live.Server, k)
	for i := 0; i < k; i++ {
		srvs[i], addrs[i] = startShard(b, uint32(i), cfg)
	}
	pcfg.Shards = addrs
	p, err := Dial(pcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		b.Fatal(err)
	}
	return srvs, p
}

// BenchmarkPoolStageThroughput measures aggregate stage bandwidth as the
// cluster grows 1 -> 2 -> 4 shards, weak-scaling style: each shard
// brings its own fixed client population (workersPerShard synchronous
// stagers), as each added server would in a real deployment. A single
// synchronous stager per shard is latency-bound — its round trip is
// mostly syscall and scheduler wakeup gaps — so added shards (each an
// independent connection plus stager) overlap those gaps and aggregate
// bandwidth rises with cluster size. The remap-frac metric is the
// deterministic fraction of the keyspace that would move if one more
// shard joined the ring at that size — the consistent-hashing stability
// cost of the next scale-out step.
func BenchmarkPoolStageThroughput(b *testing.B) {
	const payload = 8 << 10
	const workersPerShard = 1
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			_, p := benchCluster(b, k)
			body := make([]byte, payload)
			b.SetBytes(payload)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workersPerShard*k; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						ref, err := p.StageRef(body)
						if err != nil {
							b.Error(err)
							return
						}
						if err := p.FreeRef(ref); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			r := newHashRing()
			for id := uint32(0); id < uint32(k); id++ {
				r.Add(id)
			}
			frac := remapFraction(r, 20_000, func() { r.Add(uint32(k)) })
			b.ReportMetric(frac, "remap-frac")
		})
	}
}

// BenchmarkPoolReadRefThroughput measures aggregate by-ref read
// bandwidth under the same weak-scaling population.
func BenchmarkPoolReadRefThroughput(b *testing.B) {
	const payload = 8 << 10
	const workersPerShard = 1
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			_, p := benchCluster(b, k)
			// One resident object per shard; readers fan over them.
			refs := make([]dm.Ref, 0, k)
			for key := uint64(0); len(refs) < k && key < 1<<16; key++ {
				id, _ := p.ring.Lookup(key)
				if int(id) == len(refs) {
					ref, err := p.stageRefKeyed(key, make([]byte, payload))
					if err != nil {
						b.Fatal(err)
					}
					refs = append(refs, ref)
				}
			}
			if len(refs) < k {
				b.Fatalf("could not place one object per shard (%d/%d)", len(refs), k)
			}
			b.SetBytes(payload)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workersPerShard*k; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					dst := make([]byte, payload)
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if err := p.ReadRef(refs[int(i)%len(refs)], 0, dst); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkPoolZipfRead prices the hot-ref cache under the paper's
// skewed-popularity read pattern: 4 closed-loop readers draw from a
// Zipf(s=1.1) distribution over a working set 8x the cache budget, so
// the cache cannot fit the set and wins only as far as LRU recency keeps
// the hot head resident while tail misses cycle through. Popularity is
// static and nothing is rewritten — the shape a frequency filter would
// favour, which this cache does not have. The cache=off run is the wire
// baseline; cache=on must beat it on throughput by serving the head
// from memory, and both runs report hit-rate / p50-ns / p99-ns extras,
// so a run shows the speedup AND the tail it comes from.
func BenchmarkPoolZipfRead(b *testing.B) {
	const payload = 8 << 10
	const objects = 512 // 4 MiB working set
	const readers = 4
	const cacheBudget = 512 << 10 // ~64 objects: an 8x-oversubscribed cache
	for _, cacheOn := range []bool{false, true} {
		name, cfg := "cache=off", Config{}
		if cacheOn {
			name, cfg = "cache=on", Config{CacheBytes: cacheBudget}
		}
		b.Run(name, func(b *testing.B) {
			_, p := benchClusterCfg(b, 2, cfg)
			refs := make([]dm.Ref, objects)
			for i := range refs {
				ref, err := p.StageRef(make([]byte, payload))
				if err != nil {
					b.Fatal(err)
				}
				refs[i] = ref
			}
			var hist stats.AtomicHistogram
			b.SetBytes(payload)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					z := workload.NewZipf(objects, 1.1, workload.DeriveSeed(1, uint64(w)))
					dst := make([]byte, payload)
					for next.Add(1) <= int64(b.N) {
						start := time.Now()
						if err := p.ReadRef(refs[z.Next()], 0, dst); err != nil {
							b.Error(err)
							return
						}
						hist.Record(time.Since(start).Nanoseconds())
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			h := hist.Snapshot()
			b.ReportMetric(float64(h.Percentile(50)), "p50-ns")
			b.ReportMetric(float64(h.Percentile(99)), "p99-ns")
			var hitRate float64
			if cs := p.CacheStats(); cs.Hits+cs.Misses > 0 {
				hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
			}
			b.ReportMetric(hitRate, "hit-rate")
		})
	}
}

// BenchmarkPoolReplicatedStage prices replication: stage+free cycles on
// the same 3-shard cluster at R=1 (one copy, one round trip) and R=2
// (two pipelined copies of every payload). The R=2 run pays double the
// network and memory per object, so its per-op throughput bounds the
// write-path cost of surviving a shard loss.
func BenchmarkPoolReplicatedStage(b *testing.B) {
	const payload = 8 << 10
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			_, p := benchClusterCfg(b, 3, Config{ReplicaFactor: r, RepairInterval: -1})
			body := make([]byte, payload)
			b.SetBytes(payload)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						ref, err := p.StageRef(body)
						if err != nil {
							b.Error(err)
							return
						}
						if err := p.FreeRef(ref); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkPoolRepair measures self-healing: each iteration stages a
// population of replicated refs on 3 shards, ejects one shard, and times
// the repairer restoring full R=2 replication on the survivors, paced by
// the repairer's 32 MiB/s bandwidth bound. The repair-secs extra is the
// convergence time of the last iteration and under-replicated-max the
// gauge's peak right after the ejection (the backlog size).
func BenchmarkPoolRepair(b *testing.B) {
	const payload, objects = 8 << 10, 32
	const victim = 2
	_, p := benchClusterCfg(b, 3, Config{
		ReplicaFactor:  2,
		RepairInterval: 5 * time.Millisecond,
	})
	body := make([]byte, payload)
	var repairSecs, underMax float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refs := make([]dm.Ref, objects)
		for j := range refs {
			ref, err := p.StageRef(body)
			if err != nil {
				b.Fatal(err)
			}
			refs[j] = ref
		}
		b.StartTimer()

		// Eject the victim the way the health monitor would.
		p.shards[victim].healthy.Store(false)
		p.ring.Remove(victim)
		start := time.Now()
		backlog := p.UnderReplicated()
		p.kickRepair()
		for p.UnderReplicated() > 0 {
			if time.Since(start) > 30*time.Second {
				b.Fatal("repair did not converge")
			}
			time.Sleep(200 * time.Microsecond)
		}
		repairSecs = time.Since(start).Seconds()
		underMax = float64(backlog)

		b.StopTimer()
		// Readmit the shard (its copies are intact — this was a ring
		// ejection, not a crash) and drain the population.
		p.ring.Add(victim)
		p.shards[victim].healthy.Store(true)
		for _, ref := range refs {
			if err := p.FreeRef(ref); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(repairSecs, "repair-secs")
	b.ReportMetric(underMax, "under-replicated-max")
}

// BenchmarkPoolRebalance measures live migration (DESIGN.md §D16): a
// population is staged at R=2 while shard 3 sits outside the ring, then
// the shard is readmitted — the join — and the timed section is the
// rebalancer converging every remapped ref onto its new ring placement:
// copy to the newcomer, registry flip, surplus reclaim, paced by the
// repairer's 32 MiB/s bandwidth bound. migrate-secs is the last
// iteration's convergence time, moved-bytes the payload volume it
// staged, and remap-frac-after the off-placement fraction left when the
// audit settles (~0 — the acceptance gate for the zero-leak, zero-loss
// join).
func BenchmarkPoolRebalance(b *testing.B) {
	const payload, objects = 8 << 10, 64
	const joiner = 3
	_, p := benchClusterCfg(b, 4, Config{
		ReplicaFactor:   2,
		RepairInterval:  5 * time.Millisecond,
		RegistryHandoff: true,
	})
	eject := func() {
		p.shardList()[joiner].healthy.Store(false)
		p.ring.Remove(joiner)
	}
	readmit := func() {
		p.shardList()[joiner].healthy.Store(true)
		p.ring.Add(joiner)
		p.kickRepair()
	}
	eject() // the population below must be placed on shards 0-2 only
	body := make([]byte, payload)
	var migrateSecs, movedBytes, remapFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refs := make([]dm.Ref, objects)
		for j := range refs {
			ref, err := p.StageRef(body)
			if err != nil {
				b.Fatal(err)
			}
			refs[j] = ref
		}
		bytesBefore := p.MigratedBytes()
		b.StartTimer()

		readmit()
		start := time.Now()
		for {
			total, off := p.auditPlacement()
			if total > 0 && off == 0 && p.UnderReplicated() == 0 {
				remapFrac = float64(off) / float64(total)
				break
			}
			if time.Since(start) > 30*time.Second {
				b.Fatalf("rebalance did not converge: %d/%d off placement", off, total)
			}
			time.Sleep(200 * time.Microsecond)
		}
		migrateSecs = time.Since(start).Seconds()
		movedBytes = float64(p.MigratedBytes() - bytesBefore)

		b.StopTimer()
		for _, ref := range refs {
			if err := p.FreeRef(ref); err != nil {
				b.Fatal(err)
			}
		}
		eject() // next iteration stages on 3 shards again
		b.StartTimer()
	}
	b.ReportMetric(migrateSecs, "migrate-secs")
	b.ReportMetric(movedBytes, "moved-bytes")
	b.ReportMetric(remapFrac, "remap-frac-after")
}
