package pool

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/live"
)

// liveRefs sums LiveRefs over every shard.
func liveRefs(srvs []*live.Server) int {
	n := 0
	for _, srv := range srvs {
		n += srv.LiveRefs()
	}
	return n
}

// TestConsumeSingleCopy: at R=1 a consume is one wire call on the ref's
// shard, and it leaves nothing behind.
func TestConsumeSingleCopy(t *testing.T) {
	srvs, p := startCluster(t, 2, smallShard(), Config{})
	payload := bytes.Repeat([]byte{7}, 10000)
	for i := 0; i < 4; i++ {
		ref, err := p.StageRef(payload)
		if err != nil {
			t.Fatal(err)
		}
		calls := p.Stats().Calls
		b, err := p.ConsumeRefLeaseFrom(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), payload) {
			t.Fatal("consumed bytes differ")
		}
		b.Release()
		if d := p.Stats().Calls - calls; d != 1 {
			t.Fatalf("consume cost %d wire calls, want 1", d)
		}
	}
	if n := liveRefs(srvs); n != 0 {
		t.Fatalf("LiveRefs = %d after consuming everything", n)
	}
	checkAllInvariants(t, srvs)
}

// TestConsumeReplicated: at R=2 a consume reads one copy and frees the
// other, tombstones the cache key and stops tracking the ref; a consume
// refused as out of range sends no free and leaves both copies.
func TestConsumeReplicated(t *testing.T) {
	pcfg := Config{ReplicaFactor: 2, RepairInterval: -1, CacheBytes: 1 << 20}
	pcfg.Client.HeartbeatInterval = 5 * time.Second // keep the tombstone in place
	srvs, p := startCluster(t, 3, smallShard(), pcfg)
	payload := bytes.Repeat([]byte{9}, 8192)
	ref, err := p.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	oversize := ref
	oversize.Size += 4096
	calls := p.Stats().Calls
	if _, err := p.ConsumeRefLeaseFrom(oversize, nil); !errors.Is(err, dm.ErrOutOfRange) {
		t.Fatalf("oversize consume: %v, want ErrOutOfRange", err)
	}
	if d := p.Stats().Calls - calls; d != 1 {
		t.Fatalf("refused consume cost %d wire calls, want 1 (no frees)", d)
	}
	if n := liveRefs(srvs); n != 2 {
		t.Fatalf("LiveRefs after a refused consume = %d, want 2", n)
	}
	if p.cache.Denied(p.cacheKey(ref)) {
		t.Fatal("a refused consume tombstoned the cache key")
	}

	calls = p.Stats().Calls
	b, err := p.ConsumeRefLeaseFrom(ref, p.Replicas(ref))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("consumed bytes differ")
	}
	b.Release()
	if d := p.Stats().Calls - calls; d != 2 {
		t.Fatalf("replicated consume cost %d wire calls, want 2 (consume + one free)", d)
	}
	if n := liveRefs(srvs); n != 0 {
		t.Fatalf("LiveRefs = %d after the consume, want 0", n)
	}
	if !p.cache.Denied(p.cacheKey(ref)) {
		t.Fatal("cache key not tombstoned after the consume")
	}
	if n := p.TrackedRefs(); n != 0 {
		t.Fatalf("TrackedRefs = %d after the consume, want 0", n)
	}
	checkAllInvariants(t, srvs)
}

// TestConsumeFailsOverPastDeadPrimary: with the primary crashed, the
// consume is served by the surviving copy, which ends up freed.
func TestConsumeFailsOverPastDeadPrimary(t *testing.T) {
	const shards, victim = 3, 1
	pcfg := Config{ReplicaFactor: 2, RepairInterval: -1, RejoinPoll: -1}
	pcfg.Client.Net.CallTimeout = 500 * time.Millisecond
	pcfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	pcfg.Client.Net.DialTimeout = 100 * time.Millisecond
	var crash func()
	srvs := make([]*live.Server, shards)
	for i := range srvs {
		scfg := smallShard()
		scfg.HasShard, scfg.ShardID = true, uint32(i)
		srv := live.NewServer(scfg)
		rst, ln, err := faultnet.NewRestartable("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) // the victim's accept error after Crash is expected
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		pcfg.Shards = append(pcfg.Shards, rst.Addr())
		if i == victim {
			crash = func() { rst.Crash(); srv.Close() }
		}
	}
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 8192)
	var ref dm.Ref
	for i := 0; i < 200 && ref.Server != victim; i++ {
		if ref, err = p.StageRef(payload); err != nil {
			t.Fatal(err)
		}
		if ref.Server != victim {
			if err := p.FreeRef(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ref.Server != victim {
		t.Fatalf("no stage landed its primary on shard %d", victim)
	}
	crash()
	failovers := p.FailoverReads()
	b, err := p.ConsumeRefLeaseFrom(ref, nil)
	if err != nil {
		t.Fatalf("consume with the primary down: %v", err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("failover consume returned wrong bytes")
	}
	b.Release()
	if d := p.FailoverReads() - failovers; d != 1 {
		t.Fatalf("FailoverReads delta %d, want 1", d)
	}
	for i, srv := range srvs {
		if i != victim && srv.LiveRefs() != 0 {
			t.Fatalf("survivor shard %d still holds %d refs", i, srv.LiveRefs())
		}
	}
}
