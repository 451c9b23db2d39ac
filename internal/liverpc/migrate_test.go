package liverpc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/pool"
)

// TestStaleHintsResolveAfterMigration covers the zero-loss read window
// of DESIGN.md §D16 at the RPC layer: a replicated ref payload
// marshals the staging-time replica hints into its wire form, a
// migration then moves the copies onto a grown ring's wanted placement
// and reclaims the originals, and a consumer that receives the OLD wire
// bytes must still materialize the payload — the carried hints are
// advisory, and ReadRefFrom fails over through the consumer's ring and
// the cluster registry to wherever the copies live now.
func TestStaleHintsResolveAfterMigration(t *testing.T) {
	scfg := live.ServerConfig{NumPages: 1024, PageSize: 4096}
	var addrs []string
	srvs := make([]*live.Server, 4)
	for i := 0; i < 4; i++ {
		cfg := scfg
		cfg.HasShard = true
		cfg.ShardID = uint32(i)
		srv, addr := startDM(t, cfg)
		srvs[i] = srv
		addrs = append(addrs, addr)
	}
	dialShards := func(shards []string) *pool.Client {
		t.Helper()
		return dialPool(t, pool.Config{
			Shards:          shards,
			ReplicaFactor:   2,
			RegistryHandoff: true,
			RepairInterval:  -1, // no background pass; migration is explicit below
		})
	}

	// Producer sees only the original 3 shards; its payloads land on
	// that ring's successors and the wire args carry those shards as
	// replica hints.
	producer := dialShards(addrs[:3])
	const n = 16
	payloads := make([][]byte, n)
	wire := make([]Payload, n)
	for i := range payloads {
		data := make([]byte, 8<<10)
		for j := range data {
			data[j] = byte((i*31 + j) % 251)
		}
		payloads[i] = data
		ref, err := producer.StageRef(data)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		reps := producer.Replicas(ref)
		if len(reps) != 2 {
			t.Fatalf("stage %d: want 2 replicas, got %v", i, reps)
		}
		// Round-trip through the wire form, exactly as a call envelope
		// would carry it between services.
		resp, err := dmwire.AppendReturn(nil, []Payload{ByRef(ref, reps)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := results(resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = got[0]
	}

	// The migrator sees all 4 shards: its sync pass adopts the handed-off
	// directory entries, and its rebalance passes migrate remapped refs
	// onto the grown ring and reclaim the now-surplus originals.
	migrator := dialShards(addrs)
	deadline := time.Now().Add(15 * time.Second)
	for {
		res := migrator.Rebalance()
		if res.TrackedRefs >= n && res.OffPlacement == 0 && migrator.UnderReplicated() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration did not converge: %+v", res)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if migrator.MigratedRefs() == 0 {
		t.Fatal("no refs migrated — the join should remap some of the keyspace")
	}

	// A consumer on the new topology materializes every old wire payload
	// even though the hints baked into it may now point at shards whose
	// copy was reclaimed.
	consumer := dialShards(addrs)
	for i, p := range wire {
		got, err := fetch(consumer, p)
		if err != nil {
			t.Fatalf("fetch %d with stale hints: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("fetch %d: payload corrupt after migration", i)
		}
	}

	// The consumer can free through the same resolution path, leaving
	// nothing live on any shard.
	for i, p := range wire {
		if err := consumer.FreeRef(p.Ref()); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	waitLive := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, srv := range srvs {
			total += srv.LiveRefs()
		}
		if total == 0 {
			break
		}
		if time.Now().After(waitLive) {
			t.Fatalf("%d refs still live after freeing everything", total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
