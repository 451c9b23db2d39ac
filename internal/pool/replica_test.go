package pool

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
)

// TestReplicatedStagePlacement pins the R=2 placement invariant: every
// staged payload gets a pool-minted cluster key (ReplicaKeyBit set), its
// copies land on exactly the ring successors of that key, both copies
// are real (server-side live-ref counts double), and FreeRef releases
// every copy.
func TestReplicatedStagePlacement(t *testing.T) {
	const k, objects = 3, 16
	srvs, p := startCluster(t, k, smallShard(), Config{ReplicaFactor: 2, RepairInterval: -1})

	body := bytes.Repeat([]byte{0x7c}, 8192)
	refs := make([]dm.Ref, objects)
	for i := range refs {
		ref, err := p.StageRef(body)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Key&dmwire.ReplicaKeyBit == 0 {
			t.Fatalf("ref %d key %#x lacks the replica key bit", i, ref.Key)
		}
		want := p.ring.Successors(ref.Key, 2)
		got := p.Replicas(ref)
		if len(got) != 2 || len(want) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("ref %d replicas %v, ring successors %v", i, got, want)
		}
		if ref.Server != want[0] {
			t.Fatalf("ref %d primary %d, want first successor %d", i, ref.Server, want[0])
		}
		// Both copies must be independently readable, shard-direct.
		for _, id := range got {
			buf := make([]byte, len(body))
			if err := p.shards[id].cl.ReadRef(ref, 0, buf); err != nil {
				t.Fatalf("ref %d: replica on shard %d unreadable: %v", i, id, err)
			}
			if !bytes.Equal(buf, body) {
				t.Fatalf("ref %d: replica on shard %d has wrong bytes", i, id)
			}
		}
		refs[i] = ref
	}

	total := 0
	for _, srv := range srvs {
		total += srv.LiveRefs()
	}
	if total != 2*objects {
		t.Fatalf("cluster holds %d live refs, want %d (2 copies each)", total, 2*objects)
	}
	if n := p.TrackedRefs(); n != objects {
		t.Fatalf("TrackedRefs = %d, want %d", n, objects)
	}
	if n := p.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d on a healthy cluster", n)
	}

	// Per-shard accounting: primaries sum to N, copies to 2N.
	prim, reps := 0, 0
	for _, st := range p.ReplicaStats() {
		prim += st.RefsPrimary
		reps += st.RefsReplica
	}
	if prim != objects || reps != 2*objects {
		t.Fatalf("ReplicaStats: %d primaries / %d replicas, want %d / %d",
			prim, reps, objects, 2*objects)
	}

	// stageRefKeyed's co-location key is documented as ignored at R > 1:
	// the ref still gets a minted cluster key.
	kr, err := p.stageRefKeyed(42, body)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Key == 42 || kr.Key&dmwire.ReplicaKeyBit == 0 {
		t.Fatalf("keyed stage at R=2 produced key %#x, want a minted cluster key", kr.Key)
	}
	refs = append(refs, kr)

	for i, ref := range refs {
		if err := p.FreeRef(ref); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	for id, srv := range srvs {
		if lr := srv.LiveRefs(); lr != 0 {
			t.Errorf("shard %d still holds %d refs after frees", id, lr)
		}
	}
	if n := p.TrackedRefs(); n != 0 {
		t.Fatalf("TrackedRefs = %d after frees", n)
	}
	checkAllInvariants(t, srvs)
}

// TestReplicatedReadFailover pins read failover without any network
// fault: the primary's copy is deleted shard-direct, after which
// ReadRef and ReadRefLease must both serve from the surviving replica
// and count the failovers.
func TestReplicatedReadFailover(t *testing.T) {
	srvs, p := startCluster(t, 3, smallShard(), Config{ReplicaFactor: 2, RepairInterval: -1})
	body := bytes.Repeat([]byte{0x3e}, 8192)
	ref, err := p.StageRef(body)
	if err != nil {
		t.Fatal(err)
	}
	reps := p.Replicas(ref)
	if len(reps) != 2 {
		t.Fatalf("replicas %v, want 2", reps)
	}

	// Kill the primary's copy behind the pool's back.
	if err := p.shards[ref.Server].cl.FreeRef(ref); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(body))
	if err := p.ReadRef(ref, 0, got); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("failover read returned wrong bytes")
	}
	b, err := p.ReadRefLease(ref, 0, ref.Size)
	if err != nil {
		t.Fatalf("failover lease read: %v", err)
	}
	if !bytes.Equal(b.Bytes(), body) {
		t.Fatal("failover lease read returned wrong bytes")
	}
	b.Release()

	if n := p.FailoverReads(); n != 2 {
		t.Fatalf("FailoverReads = %d, want 2", n)
	}
	secondary := reps[1]
	if n := p.ReplicaStats()[secondary].FailoverReads; n != 2 {
		t.Fatalf("shard %d served %d failover reads, want 2", secondary, n)
	}

	// FreeRef still succeeds: the surviving copy is released.
	if err := p.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	checkAllInvariants(t, srvs)
}

// TestReplicatedSingleShardDegrades covers R > members: a one-shard ring
// places the single possible copy, reads work, and the gauge does not
// report refs as under-replicated when the ring itself is too small to
// do better.
func TestReplicatedSingleShardDegrades(t *testing.T) {
	srvs, p := startCluster(t, 1, smallShard(), Config{ReplicaFactor: 2, RepairInterval: -1})
	body := bytes.Repeat([]byte{9}, 8192)
	ref, err := p.StageRef(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Replicas(ref); len(got) != 1 {
		t.Fatalf("replicas %v on a 1-shard ring", got)
	}
	if n := p.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d, want 0 (ring smaller than R)", n)
	}
	got := make([]byte, len(body))
	if err := p.ReadRef(ref, 0, got); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read: %v", err)
	}
	if err := p.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	checkAllInvariants(t, srvs)
}

// TestStageReplicatedKeyCollision: a minted key that another session
// already owns on one of its target shards collides there, so the stage
// frees the copy that landed on the other target, re-mints, and returns
// a ref under a fresh key; the foreign ref stays intact, and freeing
// both leaves every shard as it started.
func TestStageReplicatedKeyCollision(t *testing.T) {
	srvs, p := startCluster(t, 3, smallShard(),
		Config{ReplicaFactor: 2, RegistryHandoff: true, RepairInterval: -1, RejoinPoll: -1})
	base := make([]int, len(srvs))
	for i, srv := range srvs {
		base[i] = srv.FreePages()
	}

	key := p.mintKey()
	targets := p.ring.Successors(key, 2)
	if len(targets) != 2 {
		t.Fatalf("targets %v, want 2", targets)
	}
	other, err := live.Dial(p.cfg.Shards[targets[1]])
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Register(); err != nil {
		t.Fatal(err)
	}
	foreignBody := []byte("owned by another session")
	foreign, err := other.StageRefAtAsync(key, nil, foreignBody).Wait()
	if err != nil {
		t.Fatal(err)
	}

	body := bytes.Repeat([]byte{0x5c}, 8192)
	ref, err := p.stageReplicated(key, body, 0)
	if err != nil {
		t.Fatalf("stage over a colliding key: %v", err)
	}
	if ref.Key == key || ref.Key&dmwire.ReplicaKeyBit == 0 {
		t.Fatalf("ref key %#x, want a fresh cluster key other than %#x", ref.Key, key)
	}
	got := make([]byte, len(body))
	if err := p.ReadRef(ref, 0, got); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("re-minted ref read back %v", err)
	}
	// The copy that landed on the non-colliding target was rolled back.
	lost := dm.Ref{Key: key, Size: int64(len(body))}
	if err := p.shards[targets[0]].cl.ReadRef(lost, 0, got); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("rolled-back copy on shard %d: %v, want ErrBadRef", targets[0], err)
	}
	fgot := make([]byte, len(foreignBody))
	if err := other.ReadRef(foreign, 0, fgot); err != nil || !bytes.Equal(fgot, foreignBody) {
		t.Fatalf("foreign ref after the collision: %q, %v", fgot, err)
	}

	if err := p.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	if err := other.FreeRef(foreign); err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if free := srv.FreePages(); free != base[i] {
			t.Errorf("shard %d: %d free pages, baseline %d", i, free, base[i])
		}
	}
	checkAllInvariants(t, srvs)
}
