package pool

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
)

// adoptCluster starts k shards and two sessions on them, a producer and
// an adopter, both with cfg.
func adoptCluster(t *testing.T, k int, cfg Config) ([]*live.Server, *Client, *Client) {
	t.Helper()
	srvs := make([]*live.Server, k)
	for i := range srvs {
		var addr string
		srvs[i], addr = startShard(t, uint32(i), smallShard())
		cfg.Shards = append(cfg.Shards, addr)
	}
	dial := func() *Client {
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
	return srvs, dial(), dial()
}

// shardHas reports whether shard id's server holds key.
func shardHas(t *testing.T, p *Client, id uint32, key uint64) bool {
	t.Helper()
	s, err := p.byID(id)
	if err != nil {
		t.Fatal(err)
	}
	err = s.cl.ReadRef(dm.Ref{Key: key, Size: 1}, 0, make([]byte, 1))
	if err != nil && !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("shard %d: probing key %#x: %v", id, key, err)
	}
	return err == nil
}

// TestAdoptSingleCopy: at R=1 an adopt is one wire call on the ref's
// shard; the ref keeps its shard, moves to a new key, and no frame moves.
func TestAdoptSingleCopy(t *testing.T) {
	srvs, producer, adopter := adoptCluster(t, 2, Config{})
	payload := bytes.Repeat([]byte{4}, 10000)
	ref, err := producer.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	free := srvs[ref.Server].FreePages()
	calls := adopter.Stats().Calls
	own, err := adopter.AdoptRefFrom(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := adopter.Stats().Calls - calls; d != 1 {
		t.Fatalf("adopt cost %d wire calls, want 1", d)
	}
	if own.Server != ref.Server || own.Key == ref.Key || own.Size != ref.Size {
		t.Fatalf("adopted %+v from %+v", own, ref)
	}
	if got := srvs[ref.Server].FreePages(); got != free {
		t.Fatalf("adopt moved frames: FreePages %d, want %d", got, free)
	}
	got := make([]byte, len(payload))
	if err := adopter.ReadRef(own, 0, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read under the new key: %v", err)
	}
	if err := producer.FreeRef(ref); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("producer's free after the adopt: %v, want ErrBadRef", err)
	}
	if err := adopter.FreeRef(own); err != nil {
		t.Fatal(err)
	}
	if n := liveRefs(srvs); n != 0 {
		t.Fatalf("LiveRefs = %d after freeing the adopted ref", n)
	}
	checkAllInvariants(t, srvs)
}

// TestAdoptReplicated: at R=2 an adopt moves both copies under one new
// key in one fan-out (a call per copy, no frees), retires the old key's
// directory entries for the new key's, tombstones the old cache key,
// and leaves the adopter tracking the new key at the shards that hold it.
func TestAdoptReplicated(t *testing.T) {
	cfg := Config{ReplicaFactor: 2, RepairInterval: -1, RegistryHandoff: true, CacheBytes: 1 << 20}
	cfg.Client.HeartbeatInterval = 5 * time.Second // keep the tombstone in place
	srvs, producer, adopter := adoptCluster(t, 3, cfg)
	baseFree := make([]int, len(srvs))
	for i, srv := range srvs {
		baseFree[i] = srv.FreePages()
	}
	payload := bytes.Repeat([]byte{6}, 8192)
	ref, err := producer.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	holders := producer.Replicas(ref)
	calls := adopter.Stats().Calls
	own, err := adopter.AdoptRefFrom(ref, holders)
	if err != nil {
		t.Fatal(err)
	}
	if d := adopter.Stats().Calls - calls; d != int64(len(holders)) {
		t.Fatalf("replicated adopt cost %d wire calls, want %d", d, len(holders))
	}
	if own.Key&dmwire.ReplicaKeyBit == 0 || own.Key == ref.Key {
		t.Fatalf("adopted key %#x from %#x", own.Key, ref.Key)
	}
	got, want := adopter.Replicas(own), slices.Clone(holders)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("adopter tracks %v, want the old holders %v", got, holders)
	}
	for id := range srvs {
		if shardHas(t, adopter, uint32(id), ref.Key) {
			t.Fatalf("shard %d still holds the old key", id)
		}
		if want := slices.Contains(holders, uint32(id)); shardHas(t, adopter, uint32(id), own.Key) != want {
			t.Fatalf("shard %d holds the new key: %v, want %v", id, !want, want)
		}
		if _, err := adopter.RegistryLookup(uint32(id), ref.Key); !errors.Is(err, dm.ErrBadRef) {
			t.Fatalf("shard %d: old key's directory entry: %v, want ErrBadRef", id, err)
		}
	}
	for _, id := range holders {
		ent, err := adopter.RegistryLookup(id, own.Key)
		if err != nil || ent.Epoch != 1 || ent.Size != own.Size {
			t.Fatalf("shard %d: new key's directory entry %+v, %v", id, ent, err)
		}
	}
	if !adopter.cache.Denied(adopter.cacheKey(ref)) {
		t.Fatal("old cache key not tombstoned after the adopt")
	}
	producer.Forget(ref)
	if n := producer.TrackedRefs() + adopter.TrackedRefs(); n != 1 {
		t.Fatalf("tracked refs across both sessions = %d, want 1 (the adopter's)", n)
	}
	b, err := producer.ReadRefLeaseFrom(own, adopter.Replicas(own), 0, own.Size)
	if err != nil || !bytes.Equal(b.Bytes(), payload) {
		t.Fatalf("read under the new key: %v", err)
	}
	b.Release()
	if err := adopter.FreeRef(own); err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if free := srv.FreePages(); free != baseFree[i] {
			t.Fatalf("shard %d: FreePages %d, want %d", i, free, baseFree[i])
		}
	}
	checkAllInvariants(t, srvs)
}

// TestAdoptReplicatedPartial: a copy lost before the adopt leaves one
// adopted copy; the adopt still succeeds, and the adopter's repairer
// brings the new key back to two copies.
func TestAdoptReplicatedPartial(t *testing.T) {
	cfg := Config{ReplicaFactor: 2, RepairInterval: -1}
	srvs, producer, adopter := adoptCluster(t, 3, cfg)
	payload := bytes.Repeat([]byte{8}, 8192)
	ref, err := producer.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	holders := producer.Replicas(ref)
	lost, err := producer.byID(holders[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := lost.cl.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	own, err := adopter.AdoptRefFrom(ref, holders)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for adopter.UnderReplicated() != 0 || liveRefs(srvs) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("repair did not converge: under-replicated %d, LiveRefs %d",
				adopter.UnderReplicated(), liveRefs(srvs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range adopter.Replicas(own) {
		if !shardHas(t, adopter, id, own.Key) {
			t.Fatalf("shard %d is tracked but holds no copy", id)
		}
	}
	checkAllInvariants(t, srvs)
}
