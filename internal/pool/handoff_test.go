package pool

import (
	"bytes"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/live"
)

// TestReplicatedWriteWireShape pins what a replicated write costs on the
// wire under RegistryHandoff at K=3, R=2: a stage is one exchange per
// replica (the directory entry rides stage_at, no reg_put follows), a
// free is one per replica, and the frees are in flight together — with
// every replica shard answering D late, FreeRef takes about D, not R·D.
func TestReplicatedWriteWireShape(t *testing.T) {
	const shards, r = 3, 2
	const delay = 100 * time.Millisecond
	// No session leasing: no heartbeats, so Stats().Calls counts the
	// operations alone.
	pcfg := Config{ReplicaFactor: r, RegistryHandoff: true, RepairInterval: -1, RejoinPoll: -1}
	srvs := make([]*live.Server, shards)
	injs := make([]*faultnet.Injector, shards)
	for i := range srvs {
		scfg := smallShard()
		scfg.HasShard, scfg.ShardID = true, uint32(i)
		srvs[i] = live.NewServer(scfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		injs[i] = faultnet.New()
		go srvs[i].Serve(injs[i].Listener(ln))
		t.Cleanup(func() { srvs[i].Close() })
		pcfg.Shards = append(pcfg.Shards, ln.Addr().String())
	}
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{0x5A}, 4096)
	calls := func() int64 { return p.Stats().Calls }
	c0 := calls()
	ref, err := p.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d := calls() - c0; d != r {
		t.Fatalf("StageRef cost %d wire calls, want %d", d, r)
	}
	reps := p.Replicas(ref)
	if len(reps) != r {
		t.Fatalf("staged on %v, want %d replicas", reps, r)
	}
	for _, id := range reps {
		ent, ok := srvs[id].Registry().Get(ref.Key)
		if !ok || ent.Epoch != 1 || ent.Size != ref.Size || !reflect.DeepEqual(ent.Replicas, reps) {
			t.Fatalf("shard %d directory after stage: %+v (held %v), want epoch 1 naming %v", id, ent, ok, reps)
		}
	}
	c0 = calls()
	if err := p.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	if d := calls() - c0; d != r {
		t.Fatalf("FreeRef cost %d wire calls, want %d", d, r)
	}
	for i, srv := range srvs {
		if srv.LiveRefs() != 0 || srv.Registry().Len() != 0 {
			t.Fatalf("shard %d after free: %d refs, %d directory entries", i, srv.LiveRefs(), srv.Registry().Len())
		}
	}

	ref, err = p.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.Replicas(ref) {
		injs[id].SetWriteDelay(delay)
	}
	start := time.Now()
	err = p.FreeRef(ref)
	took := time.Since(start)
	for _, inj := range injs {
		inj.SetWriteDelay(0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if took < delay || took >= delay*3/2 {
		t.Fatalf("FreeRef with both replicas %v late took %v, want [%v, %v)", delay, took, delay, delay*3/2)
	}
	checkAllInvariants(t, srvs)
}

// TestPartialPlacementCorrectsDirectory: a stage that lands fewer copies
// than it targeted leaves, on the shard that took one, a stage-time
// directory entry naming a target that holds nothing. The stage replaces
// it with a corrected epoch-2 entry naming only the placed copies, and
// once the missing target is back the repairer converges the ref: two
// live replicas, both directories naming both at epoch >= 3, no payload
// lost.
func TestPartialPlacementCorrectsDirectory(t *testing.T) {
	const shards, victim = 3, 1
	const leaseTTL = 400 * time.Millisecond
	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: leaseTTL}
	srvs := make([]*live.Server, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		if i != victim {
			srvs[i], addrs[i] = startShard(t, uint32(i), scfg)
		}
	}
	vcfg := scfg
	vcfg.HasShard, vcfg.ShardID = true, victim
	srv1 := live.NewServer(vcfg)
	rst, vln, err := faultnet.NewRestartable("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(vln) // returns an accept error after Crash
	srvs[victim], addrs[victim] = srv1, rst.Addr()

	pcfg := Config{
		Shards:          addrs,
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
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}

	// Kill the victim, then stage a burst before its heartbeats can eject
	// it: each stage targets the victim with probability 2/3, so (short of
	// a 3^-16 fluke) some come back with one copy.
	rst.Crash()
	srv1.Close()
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8192) }
	refs := make([]dm.Ref, 16)
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			refs[i], errs[i] = p.StageRef(bodyOf(i))
		}(i)
	}
	wg.Wait()
	full := newHashRing(0) // the membership every stage above was placed on
	for i := 0; i < shards; i++ {
		full.Add(uint32(i))
	}
	var partial []int
	for i, ref := range refs {
		if errs[i] != nil {
			t.Fatalf("stage %d with one target dead: %v", i, errs[i])
		}
		p.refMu.Lock()
		m := p.refs[ref.Key]
		placed, epoch := slices.Clone(m.replicas), m.epoch
		p.refMu.Unlock()
		if !slices.Contains(full.Successors(ref.Key, 2), victim) {
			if epoch != 1 {
				t.Fatalf("fully placed ref %d tracked at epoch %d, want 1", i, epoch)
			}
			continue
		}
		partial = append(partial, i)
		// The repairer may already have added the third shard's copy;
		// it never bumps the epoch without a flip.
		if epoch != 2 || slices.Contains(placed, victim) {
			t.Fatalf("ref %d tracked at epoch %d on %v, want epoch 2 without shard %d", i, epoch, placed, victim)
		}
		ent, err := p.RegistryLookup(ref.Server, ref.Key)
		if err != nil || ent.Epoch != 2 || !reflect.DeepEqual(ent.Replicas, []uint32{ref.Server}) {
			t.Fatalf("ref %d survivor %d directory: %+v, %v; want epoch 2 naming only itself", i, ref.Server, ent, err)
		}
	}
	if len(partial) == 0 {
		t.Fatal("no stage targeted the dead shard")
	}

	// Survivors first (repair onto the third shard while the victim is
	// out), then a fresh victim process: the rejoin re-homes each partial
	// ref onto its original targets and flips the directory.
	waitFor(t, 10*time.Second, "repair on survivors", func() bool {
		return len(p.Healthy()) == shards-1 && p.UnderReplicated() == 0
	})
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

	converged := func(i int) bool {
		ref := refs[i]
		want := p.ring.Successors(ref.Key, 2)
		if len(want) != 2 {
			return false
		}
		for _, id := range want {
			ent, err := p.RegistryLookup(id, ref.Key)
			if err != nil || ent.Epoch < 3 || len(ent.Replicas) != 2 ||
				!slices.Contains(ent.Replicas, want[0]) || !slices.Contains(ent.Replicas, want[1]) {
				return false
			}
		}
		return true
	}
	waitFor(t, 15*time.Second, "partial refs re-homed and flipped", func() bool {
		if len(p.Healthy()) != shards || p.UnderReplicated() != 0 || srv2.LiveRefs() == 0 {
			return false
		}
		for _, i := range partial {
			if !converged(i) {
				return false
			}
		}
		return true
	})

	for i, ref := range refs {
		got := make([]byte, ref.Size)
		if err := p.ReadRef(ref, 0, got); err != nil || !bytes.Equal(got, bodyOf(i)) {
			t.Fatalf("ref %d after convergence: %v", i, err)
		}
	}
	for _, ref := range refs {
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "all copies released", func() bool {
		for _, srv := range srvs {
			if srv.LiveRefs() != 0 || srv.Registry().Len() != 0 {
				return false
			}
		}
		return true
	})
	checkAllInvariants(t, srvs)
}
