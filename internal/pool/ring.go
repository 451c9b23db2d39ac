// Package pool is the sharded DM cluster layer: it routes the live DM
// protocol across N dmserverd instances through a consistent-hash ring,
// makes refs location-aware (dmwire's located call arg, whose Server
// field carries a cluster-wide shard ID), and multiplexes one
// live.Client per shard so every session keeps the single-server
// lease/heartbeat/retry machinery it already has. Per-shard
// session health drives failover: a shard whose heartbeats keep failing
// is ejected from the ring for NEW placements while refs it already
// holds keep resolving until the server's session sweep reclaims them.
//
// With ReplicaFactor R > 1 the pool also replicates: each staged payload
// lands on the R distinct ring successors of its placement point under
// one pool-minted cluster key, reads fail over across replicas, and a
// background repairer re-replicates under-replicated refs after an
// ejection and re-homes them when a shard rejoins (replica.go,
// DESIGN.md §D13). The pool routes refs only: region calls (alloc,
// write, read, free) go to one server's live.Client.
package pool

import (
	"sort"
	"sync"
)

// vnodes is the virtual-node count per shard. More vnodes smooth the key
// distribution (imbalance shrinks roughly with 1/sqrt(vnodes)) at the
// cost of a longer sorted point array.
const vnodes = 128

// mix is the splitmix64 finalizer: a fast, deterministic 64-bit mixer
// with full avalanche, used for both ring points and op keys so ring
// placement is reproducible across processes and test runs (no seed, no
// map-order dependence).
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard uint32
}

// hashRing is a consistent-hash ring over shard IDs. Lookups walk clockwise
// from the key's hash to the next virtual node; adding or removing one
// shard remaps only the key ranges adjacent to its vnodes (~1/K of the
// keyspace), which is the property that keeps existing placements stable
// as the cluster changes. Safe for concurrent use.
type hashRing struct {
	mu     sync.RWMutex
	points []ringPoint // sorted by (hash, shard)
	member map[uint32]struct{}
}

// newHashRing returns an empty ring.
func newHashRing() *hashRing {
	return &hashRing{member: make(map[uint32]struct{})}
}

// pointSalt domain-separates vnode hashes from key hashes. Without it,
// shard 0's vnode positions are mix(v) — exactly the lookup hashes of
// keys 0..vnodes-1 — and sort.Search's >= comparison would pin every
// small key onto shard 0's own points.
const pointSalt = 0x7B9F2D4E8C1A6E35

// pointsOf derives shard's vnode positions. Purely a function of
// (shard, vnode index), so the ring's layout is deterministic.
func (r *hashRing) pointsOf(shard uint32) []ringPoint {
	pts := make([]ringPoint, vnodes)
	for v := 0; v < vnodes; v++ {
		pts[v] = ringPoint{hash: mix((uint64(shard)<<32 | uint64(v)) ^ pointSalt), shard: shard}
	}
	return pts
}

// Add joins shard to the ring; adding a member again is a no-op.
func (r *hashRing) Add(shard uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.member[shard]; ok {
		return
	}
	r.member[shard] = struct{}{}
	r.points = append(r.points, r.pointsOf(shard)...)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Remove ejects shard from the ring; removing a non-member is a no-op.
func (r *hashRing) Remove(shard uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.member[shard]; !ok {
		return
	}
	delete(r.member, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup maps a key to its owning shard (false when the ring is empty).
// The key is mixed first, so sequential keys spread uniformly.
func (r *hashRing) Lookup(key uint64) (uint32, bool) {
	h := mix(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return 0, false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard, true
}

// Successors returns up to n distinct member shards walking clockwise
// from the key's hash — the replica placement set (DESIGN.md §D13).
// Successors(key, 1)[0] is exactly Lookup(key), and the set is a pure
// function of (key, membership, vnodes), so any client sharing the
// cluster map recomputes the same placement from a bare ref key. When
// the ring has fewer than n members every member is returned.
func (r *hashRing) Successors(key uint64, n int) []uint32 {
	if n <= 0 {
		return nil
	}
	h := mix(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	out := make([]uint32, 0, n)
	seen := make(map[uint32]struct{}, n)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if _, dup := seen[p.shard]; dup {
			continue // adjacent vnodes of one shard collapse to one replica
		}
		seen[p.shard] = struct{}{}
		out = append(out, p.shard)
	}
	return out
}

// Contains reports ring membership.
func (r *hashRing) Contains(shard uint32) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.member[shard]
	return ok
}

// Members returns the member shard IDs, sorted.
func (r *hashRing) Members() []uint32 {
	r.mu.RLock()
	out := make([]uint32, 0, len(r.member))
	for s := range r.member {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the member count.
func (r *hashRing) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}
