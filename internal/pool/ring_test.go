package pool

import "testing"

// TestRingDeterministic pins that ring layout and lookups are pure
// functions of membership — two independently built rings agree on every
// key, which is what lets separate processes resolve the same located
// refs.
func TestRingDeterministic(t *testing.T) {
	a, b := newHashRing(), newHashRing()
	for id := uint32(0); id < 5; id++ {
		a.Add(id)
	}
	// Different insertion order must not matter.
	for id := int32(4); id >= 0; id-- {
		b.Add(uint32(id))
	}
	for key := uint64(0); key < 10_000; key++ {
		sa, oka := a.Lookup(key)
		sb, okb := b.Lookup(key)
		if !oka || !okb || sa != sb {
			t.Fatalf("key %d: ring A -> (%d,%v), ring B -> (%d,%v)", key, sa, oka, sb, okb)
		}
	}
}

// TestRingDistribution checks placement balance: N sequential keys over
// K shards, each shard within ±15% of the uniform share. Deterministic
// (fixed hash, no seed), so a pass here is a pass everywhere.
func TestRingDistribution(t *testing.T) {
	const keys, shards = 100_000, 4
	r := newHashRing()
	for id := uint32(0); id < shards; id++ {
		r.Add(id)
	}
	counts := make([]int, shards)
	for key := uint64(0); key < keys; key++ {
		id, ok := r.Lookup(key)
		if !ok {
			t.Fatal("lookup failed on a populated ring")
		}
		counts[id]++
	}
	want := float64(keys) / shards
	for id, n := range counts {
		if dev := (float64(n) - want) / want; dev < -0.15 || dev > 0.15 {
			t.Fatalf("shard %d holds %d of %d keys (%.1f%% off uniform; counts %v)",
				id, n, keys, dev*100, counts)
		}
	}
}

// remapFraction measures how many of n keys move when mutate changes the
// ring.
func remapFraction(r *hashRing, n uint64, mutate func()) float64 {
	before := make([]uint32, n)
	for key := uint64(0); key < n; key++ {
		before[key], _ = r.Lookup(key)
	}
	mutate()
	moved := 0
	for key := uint64(0); key < n; key++ {
		if after, ok := r.Lookup(key); !ok || after != before[key] {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// TestRingRemapFraction pins consistent hashing's stability property:
// joining a (K+1)th shard remaps about 1/(K+1) of the keyspace, and
// removing one member of K remaps about 1/K — never the wholesale
// reshuffle modulo-hashing would cause. Bounds allow 1.5x the ideal
// fraction for vnode-sampling noise.
func TestRingRemapFraction(t *testing.T) {
	const keys = 50_000
	r := newHashRing()
	for id := uint32(0); id < 3; id++ {
		r.Add(id)
	}
	if f := remapFraction(r, keys, func() { r.Add(3) }); f > 1.5/4 {
		t.Fatalf("join remapped %.1f%% of keys, want <= %.1f%%", f*100, 100*1.5/4)
	}
	// A join can only move keys ONTO the new shard; sanity-check it got a
	// meaningful share.
	if f := remapFraction(r, keys, func() { r.Remove(1) }); f > 1.5/4 {
		t.Fatalf("leave remapped %.1f%% of keys, want <= %.1f%%", f*100, 100*1.5/4)
	}
	if r.Contains(1) || r.Size() != 3 {
		t.Fatalf("membership after remove: %v", r.Members())
	}
	// Keys never resolve to an ejected member.
	for key := uint64(0); key < keys; key++ {
		if id, _ := r.Lookup(key); id == 1 {
			t.Fatalf("key %d resolved to removed shard", key)
		}
	}
}

// TestRingSuccessors pins the replica-placement walk: Successors(key, 1)
// agrees with Lookup on every key, Successors(key, n) returns n DISTINCT
// shards (adjacent vnodes of one shard must collapse), asking for more
// shards than exist returns every member, and the set is deterministic
// across independently built rings — the property that lets any client
// recompute a replicated ref's placement from its bare key.
func TestRingSuccessors(t *testing.T) {
	const shards = 5
	a, b := newHashRing(), newHashRing()
	for id := uint32(0); id < shards; id++ {
		a.Add(id)
		b.Add(shards - 1 - id) // reverse insertion order
	}
	for key := uint64(0); key < 10_000; key++ {
		one := a.Successors(key, 1)
		if own, _ := a.Lookup(key); len(one) != 1 || one[0] != own {
			t.Fatalf("key %d: Successors(1)=%v, Lookup=%d", key, one, own)
		}
		succ := a.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("key %d: got %d successors, want 3", key, len(succ))
		}
		seen := map[uint32]struct{}{}
		for _, id := range succ {
			if _, dup := seen[id]; dup {
				t.Fatalf("key %d: duplicate shard %d in successor set %v", key, id, succ)
			}
			seen[id] = struct{}{}
		}
		if other := b.Successors(key, 3); len(other) != 3 ||
			other[0] != succ[0] || other[1] != succ[1] || other[2] != succ[2] {
			t.Fatalf("key %d: rings disagree: %v vs %v", key, succ, other)
		}
		if all := a.Successors(key, shards+3); len(all) != shards {
			t.Fatalf("key %d: over-asking returned %d shards, want %d", key, len(all), shards)
		}
	}
	if a.Successors(1, 0) != nil {
		t.Fatal("Successors(key, 0) != nil")
	}
	if newHashRing().Successors(1, 2) != nil {
		t.Fatal("Successors on empty ring != nil")
	}
}

// successorRemapFraction measures how many of n keys change their R-way
// successor SET when mutate changes the ring.
func successorRemapFraction(r *hashRing, n uint64, rf int, mutate func()) float64 {
	before := make([][]uint32, n)
	for key := uint64(0); key < n; key++ {
		before[key] = r.Successors(key, rf)
	}
	mutate()
	moved := 0
	for key := uint64(0); key < n; key++ {
		after := r.Successors(key, rf)
		same := len(after) == len(before[key])
		for i := 0; same && i < len(after); i++ {
			same = after[i] == before[key][i]
		}
		if !same {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// TestRingSuccessorSetRemap extends the stability property to replica
// SETS: with R=2 over K shards, a membership change disturbs a key's
// successor set only when the changed shard enters or leaves its first R
// positions — about R/K of the keyspace, never a wholesale reshuffle.
// Bounds allow 1.5x the ideal fraction for vnode-sampling noise.
func TestRingSuccessorSetRemap(t *testing.T) {
	const keys, rf = 50_000, 2
	r := newHashRing()
	for id := uint32(0); id < 4; id++ {
		r.Add(id)
	}
	join := successorRemapFraction(r, keys, rf, func() { r.Add(4) })
	if join > 1.5*rf/5 || join == 0 {
		t.Fatalf("join remapped %.1f%% of successor sets, want (0, %.1f%%]", join*100, 100*1.5*rf/5)
	}
	leave := successorRemapFraction(r, keys, rf, func() { r.Remove(1) })
	if leave > 1.5*rf/5 || leave == 0 {
		t.Fatalf("leave remapped %.1f%% of successor sets, want (0, %.1f%%]", leave*100, 100*1.5*rf/5)
	}
}

// TestRingEmptyAndRejoin covers the edges: empty ring lookups fail,
// and remove-then-add restores the exact prior layout.
func TestRingEmptyAndRejoin(t *testing.T) {
	r := newHashRing()
	if _, ok := r.Lookup(1); ok {
		t.Fatal("lookup on empty ring succeeded")
	}
	for id := uint32(0); id < 3; id++ {
		r.Add(id)
	}
	before := make([]uint32, 1000)
	for key := range before {
		before[key], _ = r.Lookup(uint64(key))
	}
	r.Remove(2)
	r.Add(2)
	for key := range before {
		if after, _ := r.Lookup(uint64(key)); after != before[key] {
			t.Fatalf("key %d moved from %d to %d across remove+rejoin", key, before[key], after)
		}
	}
}
