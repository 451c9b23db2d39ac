package pool

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/live"
)

// TestChaosKillShardReplicated is the replication gauntlet, run under
// -race in make check: an R=2 cluster of three shards takes a concurrent
// stage burst, one shard is CRASHED mid-burst (listener and connections
// killed, memory lost — harsher than a partition), and the cluster must
//
//   - lose no data: every ref staged before the crash stays readable
//     through replica failover, byte-identical,
//   - keep every stage succeeding throughout (R=2 puts at most one copy
//     of any payload on the victim),
//   - converge repair: the under-replicated gauge returns to zero on the
//     survivors after ejection,
//   - re-admit the shard when a FRESH server process restarts on the same
//     address (new session — the rejoin path must re-register, not just
//     resume heartbeats) and re-replicate onto it, and
//   - hold D6/D8 conservation on every shard at the end.
func TestChaosKillShardReplicated(t *testing.T) {
	const shards = 3
	const victim = 1
	const leaseTTL = 400 * time.Millisecond

	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: leaseTTL}
	srvs := make([]*live.Server, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		srvs[i], addrs[i] = startShard(t, uint32(i), scfg)
	}
	// The victim serves on a crashable listener so a fresh server process
	// can come back on the same address.
	vcfg := scfg
	vcfg.HasShard, vcfg.ShardID = true, victim
	srv1 := live.NewServer(vcfg)
	rst, vln, err := faultnet.NewRestartable("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(vln) // returns an accept error after Crash; that's the point
	srvs[victim], addrs[victim] = srv1, rst.Addr()

	type topo struct {
		shard   uint32
		healthy bool
	}
	events := make(chan topo, 16)
	pcfg := Config{
		Shards:         addrs,
		UnhealthyAfter: 2,
		RejoinPoll:     100 * time.Millisecond,
		ReplicaFactor:  2,
		RepairInterval: 100 * time.Millisecond,
		OnTopology:     func(shard uint32, healthy bool) { events <- topo{shard, healthy} },
	}
	pcfg.Client.HeartbeatInterval = 50 * time.Millisecond
	pcfg.Client.Net.CallTimeout = 500 * time.Millisecond
	pcfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	pcfg.Client.Net.DialTimeout = 100 * time.Millisecond
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	waitEvent := func(what string, want topo) {
		t.Helper()
		for {
			select {
			case ev := <-events:
				if ev == want {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// bodyOf gives each ref its own payload so failover reads prove they
	// returned the right object, not just some bytes.
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8192) }

	// Pre-crash refs, enough of them that several have the victim as
	// primary (first ring successor) — those are the ones whose reads MUST
	// fail over.
	var seeded []dm.Ref
	victimPrimary := 0
	for i := 0; i < 200 && (len(seeded) < 16 || victimPrimary < 3); i++ {
		ref, err := p.StageRef(bodyOf(len(seeded)))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Server == victim {
			victimPrimary++
		}
		seeded = append(seeded, ref)
	}
	if victimPrimary < 3 {
		t.Fatalf("only %d of %d seeded refs have the victim as primary", victimPrimary, len(seeded))
	}

	// Concurrent burst across the crash. Every stage must succeed: at
	// R=2 over 3 shards the victim holds at most one of the two copies.
	// The retained population is capped (the rest staged-then-freed) so
	// an unraced fast run can't exhaust the shards' page budget — this
	// probes crash behavior, not capacity.
	var stop atomic.Bool
	var burstMu sync.Mutex
	var burst []dm.Ref
	var stageFails atomic.Int64
	var stageErr error // first stage error, under burstMu, for the failure report
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ref, err := p.StageRef(bodyOf(1000 + g))
				if err != nil {
					stageFails.Add(1)
					burstMu.Lock()
					if stageErr == nil {
						stageErr = err
					}
					burstMu.Unlock()
					continue
				}
				burstMu.Lock()
				keep := len(burst) < 64
				if keep {
					burst = append(burst, ref)
				}
				burstMu.Unlock()
				if !keep {
					p.FreeRef(ref) // errors fine mid-crash; lease reap covers strays
				}
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // mid-burst
	rst.Crash()
	srv1.Close() // the process is gone; its memory and sessions with it

	waitEvent("victim ejection", topo{victim, false})
	stop.Store(true)
	wg.Wait()
	if n := stageFails.Load(); n != 0 {
		burstMu.Lock()
		first := stageErr
		burstMu.Unlock()
		t.Fatalf("%d stages failed across the crash (first: %v)", n, first)
	}

	// Zero data loss: every pre-crash ref reads back byte-identical
	// through failover.
	for i, ref := range seeded {
		got := make([]byte, ref.Size)
		if err := p.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("seeded ref %d (primary %d) unreadable after crash: %v", i, ref.Server, err)
		}
		if !bytes.Equal(got, bodyOf(i)) {
			t.Fatalf("seeded ref %d read wrong bytes after crash", i)
		}
	}
	if p.FailoverReads() == 0 {
		t.Fatal("no reads were served by failover despite victim-primary refs")
	}

	// Repair must converge on the survivors: every tracked ref back to 2
	// live replicas.
	waitFor(t, 10*time.Second, "repair convergence on survivors", func() bool {
		return p.UnderReplicated() == 0
	})
	if p.RepairsDone() == 0 {
		t.Fatal("repair converged without doing any repairs")
	}

	// A FRESH server process restarts on the victim's address: same shard
	// ID, brand-new session. The rejoin poller must detect the reaped
	// session, re-register, and re-admit the shard.
	srv2 := live.NewServer(vcfg)
	ln2, err := rst.Restart()
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		srv2.Serve(ln2)
	}()
	t.Cleanup(func() {
		srv2.Close()
		<-done2
	})
	srvs[victim] = srv2

	waitEvent("victim re-admission", topo{victim, true})

	// The repairer re-homes refs onto the rejoined shard (the placement
	// invariant says the CURRENT successors hold the copies), and the
	// gauge stays converged.
	waitFor(t, 10*time.Second, "re-replication onto the restarted shard", func() bool {
		return srv2.LiveRefs() > 0 && p.UnderReplicated() == 0
	})

	// Everything still reads back, survivors and restartee alike.
	all := append([]dm.Ref(nil), seeded...)
	burstMu.Lock()
	all = append(all, burst...)
	burstMu.Unlock()
	for i, ref := range all {
		got := make([]byte, ref.Size)
		if err := p.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("ref %d unreadable after rejoin: %v", i, err)
		}
	}

	repairedIn := 0
	for _, st := range p.ReplicaStats() {
		repairedIn += int(st.RepairsIn)
	}
	if repairedIn == 0 {
		t.Fatal("per-shard repair counters recorded nothing")
	}

	// Drain and check conservation on every shard, restartee included.
	for _, ref := range all {
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "all copies released", func() bool {
		return srvs[0].LiveRefs() == 0 && srvs[2].LiveRefs() == 0 && srv2.LiveRefs() == 0
	})
	checkAllInvariants(t, srvs)
}

// TestChaosPartitionOneShard is the pool's failover gauntlet, run under
// -race in make check: three shards serve a concurrent stage/read burst,
// one shard is partitioned mid-burst, and the cluster must
//
//   - keep serving on the survivors throughout (reads of refs staged on
//     them before the partition included),
//   - eject the partitioned shard from the ring once its heartbeats
//     accumulate consecutive failures (observed via the topology
//     callback), after which every new stage succeeds and lands on a
//     survivor,
//   - have the partitioned server reap the client's session within ~1
//     lease TTL (its pages return to the free pool), and
//   - hold D6/D8 conservation on every shard at the end.
func TestChaosPartitionOneShard(t *testing.T) {
	const shards = 3
	const victim = 1
	const leaseTTL = 400 * time.Millisecond

	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: leaseTTL}
	srvs := make([]*live.Server, shards)
	addrs := make([]string, shards)
	injs := make(map[string]*faultnet.Injector, shards)
	for i := 0; i < shards; i++ {
		srv, addr := startShard(t, uint32(i), scfg)
		srvs[i] = srv
		addrs[i] = addr
		injs[addr] = faultnet.New()
	}

	ejected := make(chan uint32, shards)
	pcfg := Config{
		Shards:         addrs,
		UnhealthyAfter: 2,
		RejoinPoll:     -1, // a reaped session cannot rejoin; don't poll
		OnTopology: func(shard uint32, healthy bool) {
			if !healthy {
				ejected <- shard
			}
		},
	}
	pcfg.Client.HeartbeatInterval = 50 * time.Millisecond
	pcfg.Client.Net.CallTimeout = 500 * time.Millisecond
	pcfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	pcfg.Client.Net.DialTimeout = 100 * time.Millisecond
	pcfg.Client.Net.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return injs[addr].Conn(c), nil
	}
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}

	body := bytes.Repeat([]byte{0x5a}, 8192)

	// Seed refs on the survivors before any fault, to prove existing
	// placements keep resolving through the partition.
	var seeded []dm.Ref
	for key := uint64(0); len(seeded) < 8; key++ {
		id, _ := p.ring.Lookup(key)
		if id == victim {
			continue
		}
		ref, err := p.stageRefKeyed(key, body)
		if err != nil {
			t.Fatal(err)
		}
		seeded = append(seeded, ref)
	}

	// Concurrent burst: stagers and readers hammer the pool across the
	// partition transition. Errors are expected only on ops routed to the
	// victim between the cut and its ejection.
	var stop atomic.Bool
	var survivorFails atomic.Int64
	partitioned := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ref, err := p.StageRef(body)
				if err == nil {
					if err := p.ReadRef(ref, 0, make([]byte, len(body))); err != nil && ref.Server != victim {
						survivorFails.Add(1)
					}
					p.FreeRef(ref)
				}
				select {
				case <-partitioned:
					// After the cut, reads of pre-partition survivor refs
					// must keep working.
					sr := seeded[i%len(seeded)]
					if err := p.ReadRef(sr, 0, make([]byte, len(body))); err != nil {
						survivorFails.Add(1)
					}
				default:
				}
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // mid-burst
	injs[addrs[victim]].Partition()
	close(partitioned)

	// The victim's failing heartbeats must eject it from the ring.
	select {
	case id := <-ejected:
		if id != victim {
			t.Fatalf("ejected shard %d, want %d", id, victim)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partitioned shard was never ejected")
	}
	stop.Store(true)
	wg.Wait()
	if n := survivorFails.Load(); n != 0 {
		t.Fatalf("%d survivor ops failed during the partition", n)
	}

	// Post-ejection, every new stage must succeed and avoid the victim.
	for i := 0; i < 24; i++ {
		ref, err := p.StageRef(body)
		if err != nil {
			t.Fatalf("stage %d after ejection: %v", i, err)
		}
		if ref.Server == victim {
			t.Fatalf("stage %d landed on the ejected shard", i)
		}
		got := make([]byte, len(body))
		if err := p.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("read %d after ejection: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("read %d wrong bytes", i)
		}
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free %d after ejection: %v", i, err)
		}
	}
	if h := p.Healthy(); len(h) != shards-1 {
		t.Fatalf("healthy set %v, want %d survivors", h, shards-1)
	}

	// The victim reaps the dead session within ~1 lease TTL of the cut:
	// everything the pool staged there is reclaimed.
	waitFor(t, 2*leaseTTL+time.Second, "victim lease reap", func() bool {
		return srvs[victim].LiveRefs() == 0 && srvs[victim].FreePages() == scfg.NumPages
	})

	// Conservation on every shard, survivors included.
	for _, ref := range seeded {
		if err := p.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	checkAllInvariants(t, srvs)
	if st := p.Stats(); st.Retries == 0 || st.HeartbeatFailures == 0 {
		t.Fatalf("chaos run recorded no retries/heartbeat failures: %+v", st)
	}
}
