// Package registry is the cluster ref directory (DESIGN.md §D16): a
// per-shard authoritative map of cluster-keyed refs to their replica
// placement. Where PR 7's repair model tracked refs per producer —
// placement was a client-side accident that died with the staging
// session — the registry makes placement a cluster-managed, durable,
// movable property: entries are handed off from the staging client on
// stage (so refs survive their producer's lease reap), exchanged
// between clients and shards via the anti-entropy sync RPC, and flipped
// by the migration engine when the ring's wanted placement changes.
//
// Conflict resolution is epoch-based last-writer-wins: every entry
// carries a monotonically increasing epoch minted by whoever mutates
// the placement (the staging client at epoch 1, the migration executor
// bumping it on each flip). A Put at a lower epoch than the stored
// entry is a no-op, so stale anti-entropy pages can never roll a
// migration back. Deletes leave a bounded tombstone set behind for the
// same reason: a freed ref's key must not be resurrected by a sync page
// that predates the free.
//
// The package deliberately knows nothing about live or pool — it is a
// pure data structure both layers host without an import cycle.
package registry

import (
	"sort"
	"sync"
)

// Entry is one directory record: a cluster key, the payload size, the
// placement epoch, and the shard IDs believed to hold a copy (primary
// first).
type Entry struct {
	Key      uint64
	Size     int64
	Epoch    uint64
	Replicas []uint32
}

// clone deep-copies the entry so callers can't alias the registry's
// replica slices.
func (e Entry) clone() Entry {
	cp := e
	cp.Replicas = append([]uint32(nil), e.Replicas...)
	return cp
}

// DefaultMaxTombstones bounds the delete-memory set. Tombstones only
// need to outlive the anti-entropy propagation window, not the cluster;
// when the cap is hit the oldest (lowest-epoch) half is dropped.
const DefaultMaxTombstones = 4096

// Registry is one shard's (or one client's) directory slice. All
// methods are safe for concurrent use. The zero value is not ready;
// use New.
type Registry struct {
	mu            sync.RWMutex
	entries       map[uint64]Entry
	tombs         map[uint64]uint64 // key -> epoch at delete time
	maxTombstones int
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		entries:       make(map[uint64]Entry),
		tombs:         make(map[uint64]uint64),
		maxTombstones: DefaultMaxTombstones,
	}
}

// Put records e if it is news: a higher epoch than the stored entry (or
// any tombstone) wins, an equal epoch is idempotent (first writer
// stays), a lower epoch is ignored. Reports whether the directory
// changed. The registry keeps e.Replicas as given (Get and Page hand out
// copies), so the caller must not modify it afterwards — a server
// stores the slice it just decoded off the wire without a second copy.
func (r *Registry) Put(e Entry) bool {
	if e.Key == 0 || len(e.Replicas) == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if tombEpoch, dead := r.tombs[e.Key]; dead && e.Epoch <= tombEpoch {
		return false
	}
	if cur, ok := r.entries[e.Key]; ok && e.Epoch <= cur.Epoch {
		return false
	}
	delete(r.tombs, e.Key)
	r.entries[e.Key] = e
	return true
}

// Get returns the entry for key, if present.
func (r *Registry) Get(key uint64) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[key]
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

// Delete removes key at epoch, leaving a tombstone so a stale sync page
// cannot resurrect it. An epoch below the stored entry's is ignored
// (the delete lost the race to a later placement flip). Reports whether
// an entry was removed.
func (r *Registry) Delete(key uint64, epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.entries[key]; ok && epoch < cur.Epoch {
		return false
	}
	if prev, dead := r.tombs[key]; !dead || epoch > prev {
		r.tombstone(key, epoch)
	}
	if _, ok := r.entries[key]; !ok {
		return false
	}
	delete(r.entries, key)
	return true
}

// tombstone records the delete epoch, shedding the oldest half of the
// set when the cap is exceeded. Caller holds r.mu.
func (r *Registry) tombstone(key uint64, epoch uint64) {
	r.tombs[key] = epoch
	if len(r.tombs) <= r.maxTombstones {
		return
	}
	epochs := make([]uint64, 0, len(r.tombs))
	for _, ep := range r.tombs {
		epochs = append(epochs, ep)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	cut := epochs[len(epochs)/2]
	for k, ep := range r.tombs {
		if ep <= cut && k != key {
			delete(r.tombs, k)
		}
	}
}

// Len returns the number of live entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Page returns up to limit entries with keys strictly greater than
// afterKey, in ascending key order — the anti-entropy sync unit. A
// caller pages the whole directory by feeding the last returned key
// back in until the page comes back short.
func (r *Registry) Page(afterKey uint64, limit int) []Entry {
	if limit <= 0 {
		return nil
	}
	r.mu.RLock()
	keys := make([]uint64, 0, len(r.entries))
	for k := range r.entries {
		if k > afterKey {
			keys = append(keys, k)
		}
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > limit {
		keys = keys[:limit]
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		if e, ok := r.entries[k]; ok {
			out = append(out, e.clone())
		}
	}
	return out
}
