package migrate

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dm"
	"repro/internal/registry"
)

// fakeCluster is an in-memory ShardOps: a payload map per shard plus a
// registry per shard, with per-shard health and injectable faults.
type fakeCluster struct {
	mu       sync.Mutex
	shards   map[uint32]map[uint64][]byte
	regs     map[uint32]*registry.Registry
	down     map[uint32]bool
	failRead map[uint32]bool // ReadRef on this shard errors
	stages   int
	frees    int
}

func newFake(n int) *fakeCluster {
	f := &fakeCluster{
		shards:   make(map[uint32]map[uint64][]byte),
		regs:     make(map[uint32]*registry.Registry),
		down:     make(map[uint32]bool),
		failRead: make(map[uint32]bool),
	}
	for i := 0; i < n; i++ {
		f.shards[uint32(i)] = make(map[uint64][]byte)
		f.regs[uint32(i)] = registry.New()
	}
	return f
}

func (f *fakeCluster) put(shard uint32, key uint64, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shards[shard][key] = append([]byte(nil), data...)
}

func (f *fakeCluster) Healthy(shard uint32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.down[shard]
}

func (f *fakeCluster) ReadRef(shard uint32, key uint64, size, off int64, dst []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failRead[shard] {
		return fmt.Errorf("injected read fault on shard %d", shard)
	}
	data, ok := f.shards[shard][key]
	if !ok {
		return dm.ErrBadRef
	}
	copy(dst, data[off:off+int64(len(dst))])
	return nil
}

func (f *fakeCluster) StageAt(shard uint32, key uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.shards[shard][key]; ok {
		return dm.ErrRefExists
	}
	f.shards[shard][key] = append([]byte(nil), data...)
	f.stages++
	return nil
}

func (f *fakeCluster) FreeRef(shard uint32, key uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.shards[shard][key]; !ok {
		return dm.ErrBadRef
	}
	delete(f.shards[shard], key)
	f.frees++
	return nil
}

func (f *fakeCluster) RegPut(shard uint32, ent registry.Entry) error {
	f.regs[shard].Put(ent)
	return nil
}

func (f *fakeCluster) holders(key uint64) []uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []uint32
	for id, m := range f.shards {
		if _, ok := m[key]; ok {
			out = append(out, id)
		}
	}
	return out
}

const K = uint64(1) << 63 // stand-in for the pool-minted key bit

func wantFixed(m map[uint64][]uint32) func(uint64) []uint32 {
	return func(key uint64) []uint32 { return m[key] }
}

func TestPlanDiffs(t *testing.T) {
	cur := []Placement{
		{Key: K | 1, Size: 10, Epoch: 1, Have: []uint32{0, 1}},    // on target
		{Key: K | 2, Size: 20, Epoch: 1, Have: []uint32{0, 2}},    // 2 -> 1
		{Key: K | 3, Size: 30, Epoch: 1, Have: []uint32{0}},       // under-replicated
		{Key: K | 4, Size: 40, Epoch: 1, Have: []uint32{0, 1, 2}}, // surplus only
	}
	want := wantFixed(map[uint64][]uint32{
		K | 1: {0, 1}, K | 2: {0, 1}, K | 3: {0, 1}, K | 4: {0, 1},
	})
	moves := Plan(cur, want)
	if len(moves) != 3 {
		t.Fatalf("planned %d moves, want 3: %+v", len(moves), moves)
	}
	mv := moves[0]
	if mv.Key != K|2 || len(mv.CopyTo) != 1 || mv.CopyTo[0] != 1 || len(mv.DropFrom) != 1 || mv.DropFrom[0] != 2 {
		t.Fatalf("move for key 2: %+v", mv)
	}
	if mv := moves[1]; len(mv.CopyTo) != 1 || len(mv.DropFrom) != 0 {
		t.Fatalf("repair-only move: %+v", mv)
	}
	if mv := moves[2]; len(mv.CopyTo) != 0 || len(mv.DropFrom) != 1 {
		t.Fatalf("reclaim-only move: %+v", mv)
	}
}

// TestExecutorMigrates runs the full copy -> verify -> flip -> drop
// machine and checks the payload lands intact, the surplus is freed,
// and the registry flip is published at a bumped epoch.
func TestExecutorMigrates(t *testing.T) {
	f := newFake(3)
	key := K | 7
	payload := []byte("migrate me please, 23 b")
	f.put(0, key, payload)
	f.put(2, key, payload)

	moves := Plan(
		[]Placement{{Key: key, Size: int64(len(payload)), Epoch: 3, Have: []uint32{0, 2}}},
		wantFixed(map[uint64][]uint32{key: {0, 1}}))
	var flips int
	ex := &Executor{Ops: f, Registry: true, OnFlip: func(k, ep uint64, w []uint32) {
		flips++
		if k != key || ep != 4 || len(w) != 2 {
			t.Errorf("flip %x epoch %d want %v", k, ep, w)
		}
	}}
	res := ex.Run(moves)
	if res.MovedRefs != 1 || res.MovedBytes != int64(len(payload)) || res.ReclaimedReplicas != 1 || res.Errors != 0 {
		t.Fatalf("result: %+v", res)
	}
	if flips != 1 {
		t.Fatalf("%d flips, want 1", flips)
	}
	got := f.holders(key)
	if len(got) != 2 {
		t.Fatalf("holders after migrate: %v", got)
	}
	dst := make([]byte, len(payload))
	if err := f.ReadRef(1, key, int64(len(payload)), 0, dst); err != nil || string(dst) != string(payload) {
		t.Fatalf("migrated copy: %q, %v", dst, err)
	}
	for _, id := range []uint32{0, 1} {
		ent, ok := f.regs[id].Get(key)
		if !ok || ent.Epoch != 4 {
			t.Fatalf("registry on shard %d after flip: %+v ok=%v", id, ent, ok)
		}
	}
}

// TestExecutorZeroLossGuard: when a wanted copy cannot be verified or
// re-staged, the surplus drop is skipped — a leak beats a loss.
func TestExecutorZeroLossGuard(t *testing.T) {
	f := newFake(3)
	key := K | 9
	payload := []byte("precious")
	f.put(2, key, payload) // only the surplus shard has it
	f.failRead[0] = true   // wanted shard 0 can't be probed

	moves := []Move{{
		Key: key, Size: int64(len(payload)), Epoch: 1,
		Want: []uint32{0, 1}, Sources: []uint32{2},
		CopyTo: []uint32{0, 1}, DropFrom: []uint32{2},
	}}
	// StageAt on shard 0 succeeds (only reads fail), so make staging the
	// failure instead: mark shard 0 down after staging to 1.
	f.down[0] = true
	res := (&Executor{Ops: f}).Run(moves)
	if res.ReclaimedReplicas != 0 || res.SkippedDrops == 0 {
		t.Fatalf("dropped surplus despite unverifiable placement: %+v", res)
	}
	if got := f.holders(key); len(got) < 2 {
		t.Fatalf("holders: %v (surplus must be retained)", got)
	}
	dst := make([]byte, len(payload))
	if err := f.ReadRef(2, key, int64(len(payload)), 0, dst); err != nil || string(dst) != string(payload) {
		t.Fatalf("payload lost: %v", err)
	}
}

// TestExecutorVerifyRestages: a believed copy that silently vanished
// (shard restarted) is detected by the probe and re-staged before the
// surplus is dropped.
func TestExecutorVerifyRestages(t *testing.T) {
	f := newFake(3)
	key := K | 11
	payload := []byte("verify finds the hole")
	// Believed placement says {0,1} hold it, but shard 1 lost its copy;
	// shard 2 holds a surplus copy.
	f.put(0, key, payload)
	f.put(2, key, payload)

	moves := []Move{{
		Key: key, Size: int64(len(payload)), Epoch: 1,
		Want: []uint32{0, 1}, Sources: []uint32{0, 1, 2},
		DropFrom: []uint32{2},
	}}
	res := (&Executor{Ops: f}).Run(moves)
	if res.ReclaimedReplicas != 1 || res.Errors != 0 {
		t.Fatalf("result: %+v", res)
	}
	dst := make([]byte, len(payload))
	if err := f.ReadRef(1, key, int64(len(payload)), 0, dst); err != nil || string(dst) != string(payload) {
		t.Fatalf("hole not re-staged: %v", err)
	}
	if got := f.holders(key); len(got) != 2 {
		t.Fatalf("holders: %v", got)
	}
}

// TestExecutorRacingRepairer: ErrRefExists on stage counts as a
// confirmed copy, and an already-freed surplus still counts reclaimed.
func TestExecutorRacingRepairer(t *testing.T) {
	f := newFake(2)
	key := K | 13
	payload := []byte("raced")
	f.put(0, key, payload)
	f.put(1, key, payload) // the "racing repairer" already landed it

	moves := []Move{{
		Key: key, Size: int64(len(payload)), Epoch: 1,
		Want: []uint32{1}, Sources: []uint32{0},
		CopyTo: []uint32{1}, DropFrom: []uint32{0},
	}}
	var fresh, stale int
	ex := &Executor{Ops: f, OnCopied: func(_ uint64, _ uint32, _ int64, f bool) {
		if f {
			fresh++
		} else {
			stale++
		}
	}}
	res := ex.Run(moves)
	if fresh != 0 || stale != 1 {
		t.Fatalf("fresh=%d stale=%d", fresh, stale)
	}
	if res.CopiedBytes != 0 || res.ReclaimedReplicas != 1 {
		t.Fatalf("result: %+v", res)
	}
}

// TestExecutorFreedMidCopy: a ref freed after its move started (Skip
// flips to true at the freedAt-th check) must not be resurrected by a
// copy that was already in flight — COPY's stage to a new target, or
// VERIFY's re-stage of a wanted copy whose probe missed because the free
// had already taken it. The executor takes that copy back and leaves the
// rest to the free that is underway.
func TestExecutorFreedMidCopy(t *testing.T) {
	payload := []byte("freed while copying")
	for _, tc := range []struct {
		name       string
		mv         Move
		freedAt    int      // 1 is the check before the move starts
		wantHeld   []uint32 // sorted
		wantCopied int
	}{
		{"copy", Move{Want: []uint32{1}, Sources: []uint32{0}, CopyTo: []uint32{1}, DropFrom: []uint32{0}},
			2, []uint32{0}, 0},
		// Shard 2 is believed to hold a copy, but the free took it.
		{"verify", Move{Want: []uint32{1, 2}, Sources: []uint32{0, 2}, CopyTo: []uint32{1}, DropFrom: []uint32{0}},
			3, []uint32{0, 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(3)
			key := K | 14
			f.put(0, key, payload)
			mv := tc.mv
			mv.Key, mv.Size, mv.Epoch = key, int64(len(payload)), 1
			checks := 0
			ex := &Executor{Ops: f, Skip: func(uint64) bool {
				checks++
				return checks >= tc.freedAt
			}}
			res := ex.Run([]Move{mv})
			got := f.holders(key)
			slices.Sort(got)
			if !slices.Equal(got, tc.wantHeld) {
				t.Fatalf("holders after a mid-copy free: %v, want %v", got, tc.wantHeld)
			}
			if res.CopiedReplicas != tc.wantCopied || res.ReclaimedReplicas != 0 {
				t.Fatalf("result: %+v", res)
			}
		})
	}
}

func TestExecutorStopAborts(t *testing.T) {
	f := newFake(2)
	var cur []Placement
	for i := 0; i < 50; i++ {
		key := K | uint64(100+i)
		f.put(0, key, []byte("x"))
		cur = append(cur, Placement{Key: key, Size: 1, Have: []uint32{0}})
	}
	moves := Plan(cur, func(uint64) []uint32 { return []uint32{1} })
	stop := make(chan struct{})
	close(stop)
	res := (&Executor{Ops: f, Stop: stop}).Run(moves)
	if res.CopiedReplicas != 0 {
		t.Fatalf("executor ran despite closed stop: %+v", res)
	}
}
