package pool

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/live"
)

// cachePoolCfg is the snappy client profile the cache coherence tests
// share: fast heartbeats so epoch piggybacks arrive quickly, and a
// pool-level hot-ref cache.
func cachePoolCfg(addrs []string, cacheBytes int64) Config {
	cfg := Config{
		Shards:         addrs,
		UnhealthyAfter: 2,
		RejoinPoll:     100 * time.Millisecond,
		CacheBytes:     cacheBytes,
	}
	cfg.Client.HeartbeatInterval = 50 * time.Millisecond
	cfg.Client.Net.CallTimeout = 500 * time.Millisecond
	cfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	cfg.Client.Net.DialTimeout = 100 * time.Millisecond
	return cfg
}

func dialCachePool(t *testing.T, cfg Config) *Client {
	t.Helper()
	p, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheFreeThenRefetchCoheres is the §D15 raced-coherence check: a
// ref cached by one session is freed by ANOTHER session, and the cache
// holder must stop serving the stale payload within about one heartbeat
// — the server's epoch bump rides the next HeartbeatResp, which
// invalidates every cached entry homed on that shard.
func TestCacheFreeThenRefetchCoheres(t *testing.T) {
	srv, addr := startShard(t, 0, live.ServerConfig{
		NumPages: 256, PageSize: 4096, LeaseTTL: 2 * time.Second,
	})
	_ = srv

	owner := dialCachePool(t, cachePoolCfg([]string{addr}, 0)) // stages and frees, no cache
	reader := dialCachePool(t, cachePoolCfg([]string{addr}, 1<<20))

	body := bytes.Repeat([]byte{0xc3}, 8192)
	ref, err := owner.StageRef(body)
	if err != nil {
		t.Fatal(err)
	}

	// Populate, then hit: the second whole-object read must come from
	// memory.
	got := make([]byte, len(body))
	for i := 0; i < 2; i++ {
		if err := reader.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	if cs := reader.CacheStats(); cs.Hits == 0 || cs.Admits == 0 {
		t.Fatalf("cache never populated: %+v", cs)
	}

	// The OTHER session frees the ref. The reader's cache still holds the
	// payload, but the server's epoch advanced; the reader's next
	// heartbeat must carry it and drop the entry, after which a refetch
	// fails with the truth (the ref is gone) instead of serving a ghost.
	if err := owner.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "epoch-driven invalidation to stop stale reads", func() bool {
		return reader.ReadRef(ref, 0, got) != nil
	})
	if cs := reader.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("stale reads stopped without any invalidation: %+v", cs)
	}
}

// TestCacheAdmitsRestagedRef: a rewrite mints a fresh ref key, and the
// reader's cache must hold it from its first read even though the dead
// keys it replaces were read far more often. Heartbeats are off, so no
// epoch advance clears the dead entries first: only eviction makes room.
func TestCacheAdmitsRestagedRef(t *testing.T) {
	const size, n = 8192, 4
	_, addr := startShard(t, 0, live.ServerConfig{NumPages: 256, PageSize: 4096})
	cfg := Config{Shards: []string{addr}, CacheBytes: n * size}
	cfg.Client.HeartbeatInterval = -1
	reader := dialCachePool(t, cfg)
	cfg.CacheBytes = 0
	writer := dialCachePool(t, cfg)

	bodyOf := func(gen, i int) []byte { return bytes.Repeat([]byte{byte(gen<<4 | i)}, size) }
	stage := func(gen int) []dm.Ref {
		t.Helper()
		refs := make([]dm.Ref, n)
		for i := range refs {
			ref, err := writer.StageRef(bodyOf(gen, i))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		return refs
	}
	got := make([]byte, size)
	read := func(gen int, refs []dm.Ref, times int) {
		t.Helper()
		for i, ref := range refs {
			for j := 0; j < times; j++ {
				if err := reader.ReadRef(ref, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, bodyOf(gen, i)) {
					t.Fatalf("generation %d ref %d returned wrong bytes", gen, i)
				}
			}
		}
	}

	old := stage(1)
	read(1, old, 10)
	for _, ref := range old {
		if err := writer.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	fresh := stage(2)
	before := reader.CacheStats()
	read(2, fresh, 2)
	if hits := reader.CacheStats().Hits - before.Hits; hits != n {
		t.Fatalf("re-staged refs read twice each hit %d times, want %d: %+v", hits, n, reader.CacheStats())
	}
}

// TestChaosKillShardCacheOn is the cache-on replication gauntlet, run
// under -race in make check: an R=2 cluster of three shards serves a
// hot read set through the pool cache, one shard is CRASHED (listener
// and memory gone), and the cluster must keep every payload readable
// byte-identical — cache hits and failover reads mixed — with zero
// payload loss, and release every leased zero-copy buffer by Close
// (the live.LeasedBufs gauge returns to its baseline).
func TestChaosKillShardCacheOn(t *testing.T) {
	const shards = 3
	const victim = 1
	const objects = 24

	baseline := live.LeasedBufs()

	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: 2 * time.Second}
	srvs := make([]*live.Server, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		srvs[i], addrs[i] = startShard(t, uint32(i), scfg)
	}
	vcfg := scfg
	vcfg.HasShard, vcfg.ShardID = true, victim
	srv1 := live.NewServer(vcfg)
	rst, vln, err := faultnet.NewRestartable("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(vln) // accept error after Crash is expected
	srvs[victim], addrs[victim] = srv1, rst.Addr()

	var ejections atomic.Int64
	ejected := make(chan uint32, shards)
	pcfg := cachePoolCfg(addrs, 4<<20)
	pcfg.ReplicaFactor = 2
	pcfg.RepairInterval = 100 * time.Millisecond
	pcfg.OnTopology = func(shard uint32, healthy bool) {
		if !healthy {
			ejections.Add(1)
			ejected <- shard
		}
	}
	p := dialCachePool(t, pcfg)

	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8192) }
	refs := make([]dm.Ref, objects)
	for i := range refs {
		ref, err := p.StageRef(bodyOf(i))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	// Populate the cache, then prove it hits.
	readAll := func(tag string) {
		t.Helper()
		var wg sync.WaitGroup
		var fails atomic.Int64
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got := make([]byte, 8192)
				for i := w; i < objects; i += 4 {
					if err := p.ReadRef(refs[i], 0, got); err != nil {
						t.Errorf("%s: ref %d: %v", tag, i, err)
						fails.Add(1)
						continue
					}
					if !bytes.Equal(got, bodyOf(i)) {
						t.Errorf("%s: ref %d returned wrong bytes", tag, i)
						fails.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if fails.Load() != 0 {
			t.Fatalf("%s: %d payloads lost or corrupt", tag, fails.Load())
		}
	}
	readAll("pre-crash populate")
	readAll("pre-crash hits")
	if cs := p.CacheStats(); cs.Hits == 0 {
		t.Fatalf("hot set produced no cache hits: %+v", cs)
	}

	// Crash the victim: connections cut, memory gone.
	rst.Crash()
	srv1.Close()
	select {
	case id := <-ejected:
		if id != victim {
			t.Fatalf("ejected shard %d, want %d", id, victim)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crashed shard was never ejected")
	}

	// Zero payload loss with the cache on: every object — victim-primary
	// included — reads back byte-identical, repeatedly, through whatever
	// mix of cache hits and failover reads the moment demands.
	for round := 0; round < 3; round++ {
		readAll("post-crash")
	}

	// Drain: replicated frees tolerate the lost copies.
	for i, ref := range refs {
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free ref %d: %v", i, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Every zero-copy lease the cache (or any read path) retained must be
	// back: the package gauge returns to its pre-test baseline.
	if got := live.LeasedBufs(); got != baseline {
		t.Fatalf("leased buffers leaked: gauge %d, baseline %d", got, baseline)
	}
	for i, srv := range srvs {
		if i == victim {
			continue
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Errorf("survivor shard %d invariants: %v", i, err)
		}
	}
}
