package pool

import (
	"bytes"
	"errors"
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

// partialRun is a three-shard R=2 cluster under the registry handoff
// whose shard 1 died just before a burst of stages (partialStage).
type partialRun struct {
	srvs  []*live.Server // srvs[partialVictim] is the crashed server
	addrs []string
	rst   *faultnet.Restartable // the victim's listener
	vcfg  live.ServerConfig     // the victim's config, for a restart
	p     *Client
	refs  []dm.Ref // refs[i] holds partialBody(i)
	// partial lists the refs whose placement named the victim.
	partial []int
}

const partialShards, partialVictim = 3, 1

func partialBody(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8192) }

// partialStage starts the cluster, crashes the victim, and stages a
// burst before its heartbeats can eject it: each stage targets the
// victim with probability 2/3, so (short of a 3^-16 fluke) some come
// back with one copy.
func partialStage(t *testing.T) *partialRun {
	t.Helper()
	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096, LeaseTTL: 400 * time.Millisecond}
	r := &partialRun{srvs: make([]*live.Server, partialShards), addrs: make([]string, partialShards)}
	for i := 0; i < partialShards; i++ {
		if i != partialVictim {
			r.srvs[i], r.addrs[i] = startShard(t, uint32(i), scfg)
		}
	}
	r.vcfg = scfg
	r.vcfg.HasShard, r.vcfg.ShardID = true, partialVictim
	srv1 := live.NewServer(r.vcfg)
	rst, vln, err := faultnet.NewRestartable("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(vln) // returns an accept error after Crash
	r.srvs[partialVictim], r.addrs[partialVictim], r.rst = srv1, rst.Addr(), rst

	pcfg := Config{
		Shards:          r.addrs,
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
	if r.p, err = Dial(pcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.p.Close() })
	if err := r.p.Register(); err != nil {
		t.Fatal(err)
	}

	rst.Crash()
	srv1.Close()
	r.refs = make([]dm.Ref, 16)
	errs := make([]error, len(r.refs))
	var wg sync.WaitGroup
	for i := range r.refs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.refs[i], errs[i] = r.p.StageRef(partialBody(i))
		}(i)
	}
	wg.Wait()
	full := newHashRing() // the membership every stage above was placed on
	for i := 0; i < partialShards; i++ {
		full.Add(uint32(i))
	}
	for i, ref := range r.refs {
		if errs[i] != nil {
			t.Fatalf("stage %d with one target dead: %v", i, errs[i])
		}
		if slices.Contains(full.Successors(ref.Key, 2), partialVictim) {
			r.partial = append(r.partial, i)
		}
	}
	if len(r.partial) == 0 {
		t.Fatal("no stage targeted the dead shard")
	}
	return r
}

// TestPartialPlacementCorrectsDirectory: a stage that lands fewer copies
// than it targeted leaves, on the shard that took one, a stage-time
// directory entry naming a target that holds nothing. The stage replaces
// it with a corrected epoch-2 entry naming only the placed copies, and
// once the missing target is back the repairer converges the ref: two
// live replicas, both directories naming both at epoch >= 3, no payload
// lost.
func TestPartialPlacementCorrectsDirectory(t *testing.T) {
	const shards, victim = partialShards, partialVictim
	r := partialStage(t)
	srvs, p, refs, partial := r.srvs, r.p, r.refs, r.partial
	for i, ref := range refs {
		p.refMu.Lock()
		m := p.refs[ref.Key]
		placed, epoch := slices.Clone(m.replicas), m.epoch
		p.refMu.Unlock()
		if !slices.Contains(partial, i) {
			if epoch != 1 {
				t.Fatalf("fully placed ref %d tracked at epoch %d, want 1", i, epoch)
			}
			continue
		}
		// Once the victim is ejected, the repairer may already have added
		// the third shard's copy and published it at epoch 3.
		if epoch < 2 || slices.Contains(placed, victim) {
			t.Fatalf("ref %d tracked at epoch %d on %v, want epoch >= 2 without shard %d", i, epoch, placed, victim)
		}
		ent, err := p.RegistryLookup(ref.Server, ref.Key)
		if err != nil || ent.Epoch < 2 || ent.Epoch == 2 && !reflect.DeepEqual(ent.Replicas, []uint32{ref.Server}) {
			t.Fatalf("ref %d survivor %d directory: %+v, %v; want epoch 2 naming only itself", i, ref.Server, ent, err)
		}
	}

	// Survivors first (repair onto the third shard while the victim is
	// out), then a fresh victim process: the rejoin re-homes each partial
	// ref onto its original targets and flips the directory.
	waitFor(t, 10*time.Second, "repair on survivors", func() bool {
		return len(p.Healthy()) == shards-1 && p.UnderReplicated() == 0
	})
	srv2 := live.NewServer(r.vcfg)
	ln2, err := r.rst.Restart()
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
		if err := p.ReadRef(ref, 0, got); err != nil || !bytes.Equal(got, partialBody(i)) {
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

// TestRepairCopyOutlivesRepairer: a copy the repairer lands for a
// partially placed ref is published with its directory entry, so it is
// registry-owned like a staged copy. It survives the lease reap of the
// session that staged it, and the entry on its shard names it.
func TestRepairCopyOutlivesRepairer(t *testing.T) {
	r := partialStage(t)
	srvs, addrs, p, refs := r.srvs, r.addrs, r.p, r.refs
	waitFor(t, 10*time.Second, "repair on survivors", func() bool {
		return len(p.Healthy()) == partialShards-1 && p.UnderReplicated() == 0
	})

	// Close the repairer. A canary session opened after it on each
	// survivor is reaped no earlier than the repairer's own session, so
	// once both canaries are gone, so is every session-owned copy.
	p.Close()
	survivors := []int{0, 2}
	observers := make([]*live.Client, partialShards)
	canaries := make([]dm.Ref, partialShards)
	for _, id := range survivors {
		canary, err := live.Dial(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := canary.Register(); err != nil {
			t.Fatal(err)
		}
		if canaries[id], err = canary.StageRef([]byte("canary")); err != nil {
			t.Fatal(err)
		}
		canary.Close()
		if observers[id], err = live.Dial(addrs[id]); err != nil {
			t.Fatal(err)
		}
		defer observers[id].Close()
		if err := observers[id].Register(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the repairer's sessions reaped", func() bool {
		for _, id := range survivors {
			if err := observers[id].ReadRef(canaries[id], 0, make([]byte, 1)); !errors.Is(err, dm.ErrBadRef) {
				return false
			}
		}
		return true
	})
	for i, ref := range refs {
		for _, id := range survivors {
			got := make([]byte, ref.Size)
			if err := observers[id].ReadRef(dm.Ref{Key: ref.Key, Size: ref.Size}, 0, got); err != nil || !bytes.Equal(got, partialBody(i)) {
				t.Fatalf("ref %d: shard %d's copy after the repairer's reap: %v", i, id, err)
			}
			ent, ok := srvs[id].Registry().Get(ref.Key)
			if !ok || !slices.Contains(ent.Replicas, uint32(id)) {
				t.Fatalf("ref %d: shard %d's directory entry %+v (held %v) does not name it", i, id, ent, ok)
			}
		}
	}
	checkAllInvariants(t, []*live.Server{srvs[0], srvs[2]})
}

// TestMirrorForgetsFreedRefs: a session mirroring the directory forgets
// the refs another session frees. B adopts A's refs from the directory
// pages, A frees most of them, and B's next sync pass leaves it tracking
// only the live ones. After a fourth shard joins, B's rebalance moves
// what is live and chases no ghost.
func TestMirrorForgetsFreedRefs(t *testing.T) {
	const staged, kept = 300, 10
	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096}
	pcfg := Config{ReplicaFactor: 2, RegistryHandoff: true, RepairInterval: -1, RejoinPoll: -1}
	srvs := make([]*live.Server, 4)
	for i := range srvs {
		var addr string
		srvs[i], addr = startShard(t, uint32(i), scfg)
		pcfg.Shards = append(pcfg.Shards, addr)
	}
	joiner := pcfg.Shards[3]
	pcfg.Shards = pcfg.Shards[:3]
	dial := func() *Client {
		p, err := Dial(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if err := p.Register(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := dial(), dial()

	refs := make([]dm.Ref, staged)
	for i := range refs {
		var err error
		if refs[i], err = a.StageRef([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	b.syncPass()
	if n := b.TrackedRefs(); n != staged {
		t.Fatalf("B mirrors %d refs after the first sync, want %d", n, staged)
	}
	for _, ref := range refs[kept:] {
		if err := a.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	b.syncPass()
	if n := b.TrackedRefs(); n != kept {
		t.Fatalf("B mirrors %d refs after A freed all but %d", n, kept)
	}

	if _, err := b.AddShard(joiner); err != nil {
		t.Fatal(err)
	}
	if res := b.Rebalance(); res.Errors != 0 || res.TrackedRefs != kept || res.OffPlacement != 0 {
		t.Fatalf("rebalance after the join: %+v, want 0 errors and %d refs on placement", res, kept)
	}
	for i, ref := range refs[:kept] {
		got := make([]byte, ref.Size)
		if err := b.ReadRef(ref, 0, got); err != nil || got[0] != byte(i) {
			t.Fatalf("kept ref %d after the rebalance: %v", i, err)
		}
	}
	checkAllInvariants(t, srvs)
}
