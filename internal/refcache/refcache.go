// Package refcache is a size-bounded LRU payload cache for located DM
// refs (DESIGN.md §D15). It is the client-side half of the hot-ref read
// path: immutable staged-once payloads are retained (zero-copy lease
// Bufs) keyed by (server, ref key) and served back without crossing the
// wire. Every successful load is admitted, evicting least-recently-used
// entries until it fits. There is no frequency contest: a rewrite mints a
// fresh ref key, so a per-key popularity count would start cold for
// exactly the payload readers want next while the dead keys it replaced
// kept theirs. Concurrent fetches of the same cold key are coalesced
// through a singleflight table so N readers cost one RPC.
//
// Coherence is the caller's contract, not the cache's: entries carry a
// TTL (the session lease, so nothing outlives a reap) and the owner
// invalidates on free, local write, epoch advance, and shard ejection.
// The cache itself only promises that every value it hands out has
// been Retain'd for the caller and that its own holds are released on
// eviction, invalidation and Flush.
//
// The package deliberately knows nothing about live or pool clients —
// values are anything refcounted — so it sits below both without an
// import cycle.
package refcache

import (
	"sync"
	"time"
)

// Value is the refcounted payload the cache stores. The cache takes
// one Retain for its own table hold and one per reader it serves;
// every hold is paired with exactly one Release.
type Value interface {
	Retain()
	Release()
}

// Key identifies a cached payload: the located ref's nominal home
// server and its ref key. Replicated refs cache under the primary's ID
// regardless of which replica actually served the bytes, so repeat
// reads dedup across failover.
type Key struct {
	Server uint32
	Ref    uint64
}

// Config sizes the cache.
type Config struct {
	// MaxBytes bounds the sum of cached payload sizes. <= 0 disables
	// admission entirely (every GetOrLoad runs its loader).
	MaxBytes int64
}

// defaultTTL caps entry lifetime when the caller passes ttl <= 0 (for
// example, a session with leasing disabled): it bounds staleness when no
// session lease is available to derive a tighter cap from.
const defaultTTL = 30 * time.Second

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 // served from cache
	Misses        int64 // not present (the loader ran or joined a flight)
	Admits        int64 // entries inserted
	Evictions     int64 // entries displaced by the byte budget
	Invalidations int64 // entries dropped by InvalidateServer/Deny/Flush/TTL expiry
	Coalesced     int64 // GetOrLoad callers served by another caller's flight
	Bytes         int64 // current cached payload bytes (gauge)
	Entries       int64 // current entry count (gauge)
	NegHits       int64 // reads short-circuited by a freed-ref tombstone
	NegAdds       int64 // tombstones recorded by Deny
	NegEntries    int64 // current tombstone count (gauge)
}

// MaxNegEntries bounds the freed-ref tombstone set; when full, the
// oldest tombstone is shed first.
const MaxNegEntries = 1024

// entry is one cached payload (on the LRU list) or one tombstone (on the
// tombstone queue, with a zero val). Both lists are circular through a
// sentinel in Cache. A dropped entry is cleared and pushed onto the
// cache's free list, chained through next, so a warm cache admits and
// denies without allocating.
type entry[V Value] struct {
	key        Key
	val        V
	size       int64
	expire     time.Time // zero = no TTL
	prev, next *entry[V]
}

// flight is one in-progress load. Waiters register under the cache
// mutex before blocking on done; the loader retains the value once per
// registered waiter before closing done, so every waiter owns exactly
// one hold.
type flight[V Value] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int
	// noAdmit is set when an invalidation lands while the load is in
	// flight: the fetched bytes may predate a free, so they are handed
	// to the waiters (who raced the free anyway) but never cached.
	noAdmit bool
}

// Cache is the hot-ref payload cache. All methods are safe for
// concurrent use.
type Cache[V Value] struct {
	mu      sync.Mutex
	cfg     Config
	table   map[Key]*entry[V]
	lru     entry[V] // sentinel: lru.next is the most recent, lru.prev the next victim
	free    *entry[V]
	flights map[Key]*flight[V]
	bytes   int64
	st      Stats
	// neg is the freed-ref tombstone set (DESIGN.md §D16): Deny records
	// that a key was freed, and Denied lets read paths short-circuit the
	// replica failover walk for it — a probe storm against a dead key
	// costs one map lookup instead of R wire errors. Tombstones expire
	// by TTL and are cleared per-server by InvalidateServer (the epoch
	// watcher), since an epoch advance means the server's key population
	// changed and the denial may be stale. negq orders them by last Deny;
	// a session denies with one TTL, so its oldest is its soonest to
	// expire and is what a full set sheds.
	neg  map[Key]*entry[V]
	negq entry[V] // sentinel: negq.prev is the oldest tombstone
}

// New builds a cache. A nil *Cache is valid and always misses, so
// callers can hold one unconditionally.
func New[V Value](cfg Config) *Cache[V] {
	c := &Cache[V]{
		cfg:     cfg,
		table:   make(map[Key]*entry[V]),
		flights: make(map[Key]*flight[V]),
		neg:     make(map[Key]*entry[V]),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.negq.prev, c.negq.next = &c.negq, &c.negq
	return c
}

// GetOrLoad returns the cached value for k or runs load to fetch it,
// coalescing concurrent loads of the same key into one call. The
// returned value is retained for the caller (one Release owed) whether
// it came from the table, the flight, or a fresh load. size is the
// payload size used for budget accounting; ttl caps the entry's
// lifetime (<= 0 uses the config default). Load errors are returned to
// every coalesced caller and never cached.
func (c *Cache[V]) GetOrLoad(k Key, size int64, ttl time.Duration, load func() (V, error)) (V, error) {
	var zero V
	if c == nil {
		return zero, errNilCache
	}
	c.mu.Lock()
	if e := c.lookup(k); e != nil {
		c.st.Hits++
		unlink(e)
		pushFront(&c.lru, e)
		e.val.Retain()
		v := e.val
		c.mu.Unlock()
		return v, nil
	}
	c.st.Misses++
	if f := c.flights[k]; f != nil {
		f.waiters++
		c.st.Coalesced++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return zero, f.err
		}
		return f.val, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	val, err := load()

	c.mu.Lock()
	delete(c.flights, k)
	f.err = err
	if err == nil {
		f.val = val
		for i := 0; i < f.waiters; i++ {
			val.Retain()
		}
		if !f.noAdmit {
			c.admit(k, val, size, ttl)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return val, err
}

// Deny records a freed-ref tombstone for k: until it expires (ttl <= 0
// uses the config default) Denied(k) reports true, letting read paths
// fail a dead key fast instead of probing every replica. Deny also
// drops any cached payload for k and poisons in-flight loads — a freed
// ref must never serve cached bytes. The tombstone set is bounded by
// MaxNegEntries; when full, the oldest tombstone is shed. Denying a key
// again renews its tombstone.
func (c *Cache[V]) Deny(k Key, ttl time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[k]; f != nil {
		f.noAdmit = true
	}
	if e := c.table[k]; e != nil {
		c.drop(e)
		c.st.Invalidations++
	}
	if ttl <= 0 {
		ttl = defaultTTL
	}
	e := c.neg[k]
	if e != nil {
		unlink(e)
	} else {
		if len(c.neg) >= MaxNegEntries {
			c.undeny(c.negq.prev)
		}
		e = c.alloc()
		e.key = k
		c.neg[k] = e
	}
	e.expire = time.Now().Add(ttl)
	pushFront(&c.negq, e)
	c.st.NegAdds++
}

// Denied reports whether k carries a live freed-ref tombstone. A true
// return counts as a negative hit.
func (c *Cache[V]) Denied(k Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.neg[k]
	if e == nil {
		return false
	}
	if time.Now().After(e.expire) {
		c.undeny(e)
		return false
	}
	c.st.NegHits++
	return true
}

// InvalidateServer drops every entry homed on server and poisons its
// in-flight loads — the epoch-advance, ejection and reap path. Returns
// the number of entries dropped.
func (c *Cache[V]) InvalidateServer(server uint32) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, f := range c.flights {
		if k.Server == server {
			f.noAdmit = true
		}
	}
	n := 0
	for k, e := range c.table {
		if k.Server == server {
			c.drop(e)
			n++
		}
	}
	// An epoch advance means the server's key population changed, so its
	// tombstones may deny keys that exist again — clear them (§D16).
	for k, e := range c.neg {
		if k.Server == server {
			c.undeny(e)
		}
	}
	c.st.Invalidations += int64(n)
	return n
}

// Flush drops everything and poisons all in-flight loads; Close paths
// use it so the cache's Buf holds return to the pool.
func (c *Cache[V]) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.flights {
		f.noAdmit = true
	}
	n := len(c.table)
	for _, e := range c.table {
		c.drop(e)
	}
	for _, e := range c.neg {
		c.undeny(e)
	}
	c.st.Invalidations += int64(n)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Bytes = c.bytes
	st.Entries = int64(len(c.table))
	st.NegEntries = int64(len(c.neg))
	return st
}

// lookup returns the live entry for k, reaping it first if its TTL
// expired. Caller holds c.mu.
func (c *Cache[V]) lookup(k Key) *entry[V] {
	e := c.table[k]
	if e == nil {
		return nil
	}
	if !e.expire.IsZero() && time.Now().After(e.expire) {
		c.drop(e)
		c.st.Invalidations++
		return nil
	}
	return e
}

// admit inserts val, taking the cache's own Retain, after evicting
// least-recently-used entries until it fits. A payload larger than the
// whole budget is not cached; the caller keeps its own holds either
// way. Caller holds c.mu.
func (c *Cache[V]) admit(k Key, val V, size int64, ttl time.Duration) {
	if size <= 0 || size > c.cfg.MaxBytes {
		return
	}
	// c.bytes is the sum of positive entry sizes, so while it exceeds the
	// room left the list is non-empty and lru.prev is a real entry.
	for c.bytes+size > c.cfg.MaxBytes {
		c.drop(c.lru.prev)
		c.st.Evictions++
	}
	if ttl <= 0 {
		ttl = defaultTTL
	}
	val.Retain()
	e := c.alloc()
	e.key, e.val, e.size, e.expire = k, val, size, time.Now().Add(ttl)
	pushFront(&c.lru, e)
	c.table[k] = e
	c.bytes += size
	c.st.Admits++
}

// drop removes cached entry e and releases the cache's hold. Caller
// holds c.mu.
func (c *Cache[V]) drop(e *entry[V]) {
	delete(c.table, e.key)
	unlink(e)
	c.bytes -= e.size
	e.val.Release()
	c.recycle(e)
}

// undeny removes tombstone e. Caller holds c.mu.
func (c *Cache[V]) undeny(e *entry[V]) {
	delete(c.neg, e.key)
	unlink(e)
	c.recycle(e)
}

// alloc takes a cleared entry off the free list, or makes one. Caller
// holds c.mu.
func (c *Cache[V]) alloc() *entry[V] {
	e := c.free
	if e == nil {
		return new(entry[V])
	}
	c.free, e.next = e.next, nil
	return e
}

// recycle clears e, so the free list pins no payload, and pushes it onto
// the free list. Caller holds c.mu.
func (c *Cache[V]) recycle(e *entry[V]) {
	*e = entry[V]{next: c.free}
	c.free = e
}

// pushFront links e in right after the sentinel l.
func pushFront[V Value](l, e *entry[V]) {
	e.prev, e.next = l, l.next
	l.next.prev = e
	l.next = e
}

// unlink removes e from the list holding it.
func unlink[V Value](e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

type nilCacheError struct{}

func (nilCacheError) Error() string { return "refcache: GetOrLoad on nil cache" }

var errNilCache = nilCacheError{}
