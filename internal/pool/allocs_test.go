//go:build !race

package pool

import "testing"

// Allocation budgets of the pool's routing over the live call path,
// counted across the whole process (client and shards together). The
// race runtime allocates on its own, hence the build tag; CI runs these
// without -race.

// TestReadRefLeaseAllocs: at R=1 a 4 KiB ReadRefLease and its Release
// allocate nothing: the failover candidates live on the stack, and the
// live call beneath allocates nothing either.
func TestReadRefLeaseAllocs(t *testing.T) {
	_, p := startCluster(t, 2, smallShard(), Config{})
	ref, err := p.StageRef(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		b, err := p.ReadRefLease(ref, 0, ref.Size)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	read()
	got := testing.AllocsPerRun(200, read)
	t.Logf("ReadRefLease + Release: %v allocs", got)
	if got > 0 {
		t.Fatalf("ReadRefLease + Release: %v allocs, want 0", got)
	}
}

// TestStageFreeR2Allocs: a replicated 4 KiB stage and its free, at R=2,
// cost at most 14 allocations: one future per copy each way, each copy's
// frame list and ref entry on its shard, and the pool's placement
// bookkeeping (ring successors twice, the placed list, the tracked
// entry).
func TestStageFreeR2Allocs(t *testing.T) {
	_, p := startCluster(t, 3, smallShard(), Config{ReplicaFactor: 2})
	data := make([]byte, 4096)
	cycle := func() {
		ref, err := p.StageRef(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	got := testing.AllocsPerRun(200, cycle)
	t.Logf("StageRef + FreeRef at R=2: %v allocs", got)
	if got > 14 {
		t.Fatalf("StageRef + FreeRef at R=2: %v allocs, want <= 14", got)
	}
}
