package live

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/registry"
)

// TestRegistryOps exercises the directory RPCs end to end: put, point
// query, higher-epoch-wins merge, paged sync, and the free_ref
// directory delete.
func TestRegistryOps(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)

	key := dmwire.ReplicaKeyBit | 7
	if _, err := cl.RegGet(key); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("RegGet on empty directory: %v, want ErrBadRef", err)
	}
	ent := registry.Entry{Key: key, Size: 64, Epoch: 1, Replicas: []uint32{0, 2}}
	if err := cl.RegPut(ent); err != nil {
		t.Fatal(err)
	}
	got, err := cl.RegGet(key)
	if err != nil || got.Epoch != 1 || len(got.Replicas) != 2 {
		t.Fatalf("RegGet: %+v, %v", got, err)
	}
	// A stale put loses; a newer epoch flips the placement.
	if err := cl.RegPut(registry.Entry{Key: key, Size: 64, Epoch: 0, Replicas: []uint32{9}}); err != nil {
		t.Fatal(err)
	}
	if got, _ = cl.RegGet(key); got.Replicas[0] != 0 {
		t.Fatalf("stale put applied: %+v", got)
	}
	if err := cl.RegPut(registry.Entry{Key: key, Size: 64, Epoch: 2, Replicas: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if got, _ = cl.RegGet(key); got.Epoch != 2 || got.Replicas[0] != 1 {
		t.Fatalf("newer put not applied: %+v", got)
	}

	// A counter-keyed put must be rejected: the directory only tracks
	// the pool-minted half of the key space.
	if err := cl.RegPut(registry.Entry{Key: 7, Size: 1, Epoch: 1, Replicas: []uint32{0}}); err == nil {
		t.Fatal("counter-keyed RegPut accepted")
	}

	for k := uint64(1); k <= 5; k++ {
		if err := cl.RegPut(registry.Entry{Key: dmwire.ReplicaKeyBit | (100 + k), Size: 8, Epoch: 1, Replicas: []uint32{0}}); err != nil {
			t.Fatal(err)
		}
	}
	var total int
	after := uint64(0)
	for {
		page, err := cl.RegSync(after, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range page {
			if i > 0 && page[i-1].Key >= e.Key {
				t.Fatalf("sync page out of order: %+v", page)
			}
		}
		total += len(page)
		if len(page) < 3 {
			break
		}
		after = page[len(page)-1].Key
	}
	if total != 6 {
		t.Fatalf("sync paged %d entries, want 6", total)
	}

	// free_ref is also the directory delete, and the tombstone blocks a
	// stale re-put.
	if err := cl.FreeRef(dm.Ref{Server: 0, Key: key, Size: 64}); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("free of directory-only key: %v, want ErrBadRef (no payload)", err)
	}
	if _, err := cl.RegGet(key); !errors.Is(err, dm.ErrBadRef) {
		t.Fatal("directory entry survived free_ref")
	}
	if err := cl.RegPut(registry.Entry{Key: key, Size: 64, Epoch: 2, Replicas: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegGet(key); !errors.Is(err, dm.ErrBadRef) {
		t.Fatal("tombstoned entry resurrected by stale put")
	}
	if srv.Registry().Len() != 5 {
		t.Fatalf("server directory size %d, want 5", srv.Registry().Len())
	}
}

// TestRegistryHandoffSurvivesReap pins the §D16 handoff contract: a
// staged ref whose key the shard's directory holds outlives its
// producer's lease reap, while an unregistered ref from the same
// session is swept as before.
func TestRegistryHandoffSurvivesReap(t *testing.T) {
	cfg := smallConfig()
	cfg.LeaseTTL = time.Hour // the test drives the sweep by hand
	srv, addr := startServer(t, cfg)

	producer := dialClient(t, addr)
	payload := []byte("directory-owned payload")
	keyKept := dmwire.ReplicaKeyBit | 41
	keySwept := dmwire.ReplicaKeyBit | 42
	refKept, err := producer.StageRefAt(keyKept, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := producer.StageRefAt(keySwept, payload); err != nil {
		t.Fatal(err)
	}
	// Hand only keyKept off to the cluster directory.
	if err := producer.RegPut(registry.Entry{Key: keyKept, Size: int64(len(payload)), Epoch: 1, Replicas: []uint32{0}}); err != nil {
		t.Fatal(err)
	}

	// Kill the producer, then sweep once to see its last use and once
	// more two lease TTLs later.
	producer.Close()
	now := time.Now()
	sweep(srv.node, now)
	sweep(srv.node, now.Add(2*cfg.LeaseTTL))
	if srv.LiveRefs() != 1 {
		t.Fatalf("reap did not settle: %d live refs, want 1", srv.LiveRefs())
	}

	// A second session reads the surviving ref byte-for-byte.
	consumer := dialClient(t, addr)
	dst := make([]byte, len(payload))
	if err := consumer.ReadRef(dm.Ref{Server: 0, Key: refKept.Key, Size: refKept.Size}, 0, dst); err != nil {
		t.Fatalf("read of registry-owned ref after reap: %v", err)
	}
	if string(dst) != string(payload) {
		t.Fatal("payload corrupted across reap")
	}
	// The swept sibling is gone.
	if err := consumer.ReadRef(dm.Ref{Server: 0, Key: keySwept, Size: int64(len(payload))}, 0, dst); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("unregistered ref survived reap: %v", err)
	}

	// Explicit free releases the registry-owned ref and its entry.
	if err := consumer.FreeRef(refKept); err != nil {
		t.Fatal(err)
	}
	if srv.LiveRefs() != 0 {
		t.Fatalf("%d live refs after free", srv.LiveRefs())
	}
	if _, err := consumer.RegGet(keyKept); !errors.Is(err, dm.ErrBadRef) {
		t.Fatal("directory entry survived explicit free")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStageAtCarriesDirectoryEntry pins the one-exchange handoff
// (§D16): a stage_at carrying replicas records the key's epoch-1
// directory entry in the same locked section that publishes the ref, so
// a lease reap landing right after the ack already finds the ref
// registry-owned; a stage_at that fails records nothing.
func TestStageAtCarriesDirectoryEntry(t *testing.T) {
	cfg := smallConfig()
	cfg.LeaseTTL = time.Hour // the test expires leases by hand
	srv, addr := startServer(t, cfg)
	check := func(what string) {
		t.Helper()
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Owned: staged with its replica set, then the producer is reaped
	// before it could send anything else. Its count-0 sibling is swept.
	producer := dialClient(t, addr)
	payload := []byte("one exchange per replica")
	owned, swept := dmwire.ReplicaKeyBit|51, dmwire.ReplicaKeyBit|52
	ref, err := producer.StageRefAtAsync(owned, []uint32{0, 2}, payload).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := producer.StageRefAtAsync(swept, nil, payload).Wait(); err != nil {
		t.Fatal(err)
	}
	want := registry.Entry{Key: owned, Size: int64(len(payload)), Epoch: 1, Replicas: []uint32{0, 2}}
	if got, ok := srv.Registry().Get(owned); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("entry after stage_at: %+v (held %v), want %+v", got, ok, want)
	}
	if _, ok := srv.Registry().Get(swept); ok {
		t.Fatal("count-0 stage_at recorded a directory entry")
	}
	reapNow(t, srv, producer)
	consumer := dialClient(t, addr)
	dst := make([]byte, len(payload))
	if err := consumer.ReadRef(ref, 0, dst); err != nil || string(dst) != string(payload) {
		t.Fatalf("directory-owned ref after reap: %q, %v", dst, err)
	}
	if err := consumer.ReadRef(dm.Ref{Key: swept, Size: ref.Size}, 0, dst); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("count-0 sibling survived the reap: %v", err)
	}
	check("after reap")

	// Collided: the key is already held (without an entry), so the
	// stage_at fails and must not hand the existing ref to the directory.
	taken := dmwire.ReplicaKeyBit | 53
	if _, err := consumer.StageRefAt(taken, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.StageRefAtAsync(taken, []uint32{0, 1}, payload).Wait(); !errors.Is(err, dm.ErrRefExists) {
		t.Fatalf("stage_at on a held key: %v, want ErrRefExists", err)
	}
	if _, ok := srv.Registry().Get(taken); ok {
		t.Fatal("collided stage_at recorded a directory entry")
	}
	check("after collision")

	// Gone: the sweep has reaped the session, fencing its DM state (gone
	// set under its lock), while a request admitted before the reap still
	// holds the session, so the stage_at gets as far as copying into
	// frames before it sees the fence.
	doomed := dialClient(t, addr)
	sess := callerSessionOf(srv, doomed)
	reapNow(t, srv, doomed)
	free := srv.FreePages()
	key := dmwire.ReplicaKeyBit | 54
	status, _ := srv.dispatch(sess, dmwire.MStageAt,
		dmwire.StageAtReq{Key: key, Replicas: []uint32{0, 1}, Data: payload}.Marshal())
	if status != dmwire.StatusOf(dm.ErrBadAddress) {
		t.Fatalf("stage_at on a gone session: status %d, want %d", status, dmwire.StatusOf(dm.ErrBadAddress))
	}
	if got := srv.FreePages(); got != free {
		t.Fatalf("gone-session stage_at kept frames: %d free, want %d", got, free)
	}
	if _, ok := srv.Registry().Get(key); ok {
		t.Fatal("gone-session stage_at recorded a directory entry")
	}
	check("after gone-session stage")
}
