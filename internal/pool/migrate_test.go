package pool

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/live"
)

// TestChaosJoinShardRebalance is the live-migration gauntlet, run under
// -race in make check: a loaded K=3 R=2 cluster (registry handoff on)
// gains a fourth shard mid-burst via AddShard, and the rebalancer must
//
//   - converge remapped refs onto their ring-successor placement: the
//     off-placement audit returns to zero and the newcomer holds copies,
//   - reclaim surplus copies down to exactly R per ref (the repair-only
//     model leaked these), with the migration counters recording it,
//   - lose no data: every ref stays readable byte-identical throughout
//     the migration window (reads fail over across old and new
//     locations), and
//   - hold D6/D8 conservation on every shard, newcomer included, after
//     everything is freed.
func TestChaosJoinShardRebalance(t *testing.T) {
	const leaseTTL = 2 * time.Second
	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: leaseTTL}
	pcfg := Config{
		UnhealthyAfter:  2,
		RejoinPoll:      100 * time.Millisecond,
		ReplicaFactor:   2,
		RepairInterval:  100 * time.Millisecond,
		RegistryHandoff: true,
	}
	pcfg.Client.HeartbeatInterval = 50 * time.Millisecond
	pcfg.Client.Net.CallTimeout = 500 * time.Millisecond
	pcfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	pcfg.Client.Net.DialTimeout = 100 * time.Millisecond
	srvs, p := startCluster(t, 3, scfg, pcfg)

	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i%251 + 1)}, 4096) }
	var seeded []dm.Ref
	for i := 0; i < 32; i++ {
		ref, err := p.StageRef(bodyOf(i))
		if err != nil {
			t.Fatal(err)
		}
		seeded = append(seeded, ref)
	}

	// Concurrent stage/read burst across the join: every op must keep
	// succeeding while the rebalance drains.
	var stop atomic.Bool
	var burstMu sync.Mutex
	var burst []dm.Ref
	var opFails atomic.Int64
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ref, err := p.StageRef(bodyOf(100 + g))
				if err != nil {
					opFails.Add(1)
					burstMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					burstMu.Unlock()
					continue
				}
				// Read our own ref back mid-migration.
				got := make([]byte, ref.Size)
				if err := p.ReadRef(ref, 0, got); err != nil || !bytes.Equal(got, bodyOf(100+g)) {
					opFails.Add(1)
					burstMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					burstMu.Unlock()
				}
				burstMu.Lock()
				keep := len(burst) < 48
				if keep {
					burst = append(burst, ref)
				}
				burstMu.Unlock()
				if !keep {
					if err := p.FreeRef(ref); err != nil {
						opFails.Add(1)
					}
				}
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // mid-burst

	// The newcomer: a fresh server announcing shard 3, admitted live.
	srv3, addr3 := startShard(t, 3, scfg)
	id, err := p.AddShard(addr3)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("joined as shard %d, want 3", id)
	}
	if p.Shards() != 4 {
		t.Fatalf("cluster size %d after join", p.Shards())
	}
	srvs = append(srvs, srv3)

	time.Sleep(300 * time.Millisecond) // let migration overlap the burst
	stop.Store(true)
	wg.Wait()
	if n := opFails.Load(); n != 0 {
		t.Fatalf("%d ops failed across the join (first: %v)", n, firstErr)
	}

	// Migration convergence: every tracked ref sits on exactly its ring
	// successors, nothing under-replicated, and the newcomer took load.
	waitFor(t, 15*time.Second, "placement convergence after join", func() bool {
		total, off := p.auditPlacement()
		return total > 0 && off == 0 && p.UnderReplicated() == 0 && srv3.LiveRefs() > 0
	})
	if p.MigratedRefs() == 0 {
		t.Fatal("no refs were migrated despite a join-driven remap")
	}
	if p.ReclaimedReplicas() == 0 {
		t.Fatal("no surplus replicas were reclaimed")
	}
	if p.MigratedBytes() == 0 {
		t.Fatal("migration moved refs but recorded no bytes")
	}

	// Surplus reclaimed to exactly R: total live copies across the
	// cluster equal R x tracked refs — the join did not leak the old
	// copies the way repair-only used to.
	all := append([]dm.Ref(nil), seeded...)
	burstMu.Lock()
	all = append(all, burst...)
	burstMu.Unlock()
	waitFor(t, 10*time.Second, "surplus reclaim to exactly R", func() bool {
		live := 0
		for _, srv := range srvs {
			live += srv.LiveRefs()
		}
		return live == 2*len(all)
	})

	// Zero loss: everything reads back byte-identical after the move.
	for i, ref := range seeded {
		got := make([]byte, ref.Size)
		if err := p.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("seeded ref %d unreadable after rebalance: %v", i, err)
		}
		if !bytes.Equal(got, bodyOf(i)) {
			t.Fatalf("seeded ref %d read wrong bytes after rebalance", i)
		}
	}

	// Drain and check conservation everywhere, newcomer included.
	for _, ref := range all {
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "all copies released", func() bool {
		for _, srv := range srvs {
			if srv.LiveRefs() != 0 {
				return false
			}
		}
		return true
	})
	checkAllInvariants(t, srvs)
}

// TestRegistryHandoffAdoption pins the §D16 ownership transfer at pool
// level: refs staged by a client that then disappears survive its lease
// reap (the shards' directories own them), and a later client adopts
// them via anti-entropy sync, serves them, and can free them — directory
// entries included.
func TestRegistryHandoffAdoption(t *testing.T) {
	const leaseTTL = 300 * time.Millisecond
	scfg := live.ServerConfig{NumPages: 512, PageSize: 4096, LeaseTTL: leaseTTL}
	pcfg := Config{
		ReplicaFactor:   2,
		RepairInterval:  50 * time.Millisecond,
		RegistryHandoff: true,
	}
	pcfg.Client.HeartbeatInterval = 50 * time.Millisecond
	srvs, producer := startCluster(t, 3, scfg, pcfg)

	payload := bytes.Repeat([]byte{0xAB}, 2048)
	var refs []dm.Ref
	for i := 0; i < 8; i++ {
		ref, err := producer.StageRef(payload)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	liveBefore := 0
	for _, srv := range srvs {
		liveBefore += srv.LiveRefs()
	}
	if liveBefore != 2*len(refs) {
		t.Fatalf("%d live copies staged, want %d", liveBefore, 2*len(refs))
	}

	// The producer vanishes; its sessions are reaped after the lease TTL,
	// but the directory-owned copies must all survive.
	producer.Close()
	time.Sleep(3 * leaseTTL)
	liveAfter := 0
	for _, srv := range srvs {
		liveAfter += srv.LiveRefs()
	}
	if liveAfter != liveBefore {
		t.Fatalf("reap claimed handed-off refs: %d live copies, want %d", liveAfter, liveBefore)
	}

	// A successor client adopts the orphaned population via sync and
	// serves it.
	heir, err := Dial(Config{
		Shards:          producerAddrs(t, producer),
		ReplicaFactor:   2,
		RepairInterval:  50 * time.Millisecond,
		RegistryHandoff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { heir.Close() })
	if err := heir.Register(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "anti-entropy adoption", func() bool {
		return heir.TrackedRefs() >= len(refs)
	})
	for i, ref := range refs {
		got := make([]byte, ref.Size)
		if err := heir.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("adopted ref %d unreadable: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("adopted ref %d corrupted", i)
		}
	}
	for _, ref := range refs {
		if err := heir.FreeRef(ref); err != nil {
			t.Fatalf("free of adopted ref: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "adopted refs drained", func() bool {
		for _, srv := range srvs {
			if srv.LiveRefs() != 0 {
				return false
			}
		}
		return true
	})
	for i, srv := range srvs {
		if n := srv.Registry().Len(); n != 0 {
			t.Errorf("shard %d directory holds %d entries after drain", i, n)
		}
	}
	checkAllInvariants(t, srvs)
}

// producerAddrs recovers the shard address list from a pool client (the
// heir must dial the same cluster in the same order).
func producerAddrs(t *testing.T, p *Client) []string {
	t.Helper()
	var addrs []string
	for _, s := range p.shardList() {
		addrs = append(addrs, s.addr)
	}
	return addrs
}

// TestFreedRefDenied: after FreeRef, the negative cache short-circuits
// reads of the dead key through every entry point — one map lookup, no
// replica probe storm — until the epoch watcher clears the tombstone.
func TestFreedRefDenied(t *testing.T) {
	scfg := live.ServerConfig{NumPages: 512, PageSize: 4096}
	pcfg := Config{
		ReplicaFactor:  2,
		RepairInterval: -1,
		CacheBytes:     1 << 20,
	}
	// Slow heartbeats so the epoch watcher can't clear the tombstone
	// between the free and the asserted reads.
	pcfg.Client.HeartbeatInterval = 5 * time.Second
	_, p := startCluster(t, 3, scfg, pcfg)

	payload := bytes.Repeat([]byte{7}, 1024)
	ref, err := p.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	reads := map[string]func() error{
		"ReadRef":     func() error { return p.ReadRef(ref, 0, dst) },
		"ReadRefFrom": func() error { return p.ReadRefFrom(ref, []uint32{0, 1, 2}, 0, dst) },
		"ReadRefLease": func() error {
			b, err := p.ReadRefLease(ref, 0, ref.Size)
			if err == nil {
				b.Release()
			}
			return err
		},
	}
	for name, read := range reads {
		wireCalls := p.Stats().Calls
		if err := read(); !errors.Is(err, dm.ErrBadRef) {
			t.Fatalf("%s of freed ref: %v, want ErrBadRef", name, err)
		}
		if got := p.Stats().Calls - wireCalls; got != 0 {
			t.Fatalf("denied %s still crossed the wire %d times", name, got)
		}
	}
	if st := p.CacheStats(); st.NegHits < 3 || st.NegAdds == 0 {
		t.Fatalf("negative cache did not serve the denials: %+v", st)
	}
}
