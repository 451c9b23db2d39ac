package refcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBuf is a refcounted test value mirroring live.Buf's contract:
// Retain/Release panic on misuse and the live count is observable.
type fakeBuf struct {
	refs atomic.Int32
	live *atomic.Int64 // package-wide gauge stand-in
}

func newFake(gauge *atomic.Int64) *fakeBuf {
	b := &fakeBuf{live: gauge}
	b.refs.Store(1)
	gauge.Add(1)
	return b
}

func (b *fakeBuf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("refcache_test: retain on dead buf")
	}
}

func (b *fakeBuf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("refcache_test: release past zero")
	}
	if n == 0 {
		b.live.Add(-1)
	}
}

var errProbe = errors.New("probe miss")

// cached reports whether k is served from the table. The probe's loader
// fails, so a miss admits nothing.
func cached(c *Cache[*fakeBuf], k Key) bool {
	v, err := c.GetOrLoad(k, 1, 0, func() (*fakeBuf, error) { return nil, errProbe })
	if err != nil {
		return false
	}
	v.Release()
	return true
}

func TestGetOrLoadHitAndRefcounts(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	k := Key{Server: 1, Ref: 42}

	loads := 0
	load := func() (*fakeBuf, error) { loads++; return newFake(&gauge), nil }

	v1, err := c.GetOrLoad(k, 100, time.Minute, load)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.GetOrLoad(k, 100, time.Minute, load)
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	if v1 != v2 {
		t.Fatal("hit returned a different value")
	}
	v1.Release()
	v2.Release()
	if gauge.Load() != 1 {
		t.Fatalf("gauge = %d after caller releases, want 1 (cache hold)", gauge.Load())
	}
	c.Flush()
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d after Flush, want 0", gauge.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Admits != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	k := Key{Server: 0, Ref: 7}

	gate := make(chan struct{})
	var loads atomic.Int32
	load := func() (*fakeBuf, error) {
		loads.Add(1)
		<-gate
		return newFake(&gauge), nil
	}

	const n = 8
	var wg sync.WaitGroup
	vals := make([]*fakeBuf, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.GetOrLoad(k, 64, time.Minute, load)
		}(i)
	}
	// Wait until one loader is in flight and the rest are queued behind
	// it, then open the gate.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		f := c.flights[k]
		waiting := f != nil && f.waiters == n-1
		c.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if vals[i] != vals[0] {
			t.Fatal("coalesced waiter got a different value")
		}
		vals[i].Release()
	}
	if st := c.Stats(); st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	c.Flush()
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", gauge.Load())
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	k := Key{Ref: 1}
	boom := errors.New("boom")
	if _, err := c.GetOrLoad(k, 10, 0, func() (*fakeBuf, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Next call must run the loader again.
	ran := false
	v, err := c.GetOrLoad(k, 10, 0, func() (*fakeBuf, error) { ran = true; return newFake(&gauge), nil })
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
	v.Release()
	c.Flush()
}

// TestEvictsLeastRecentlyUsed: every load is admitted, and the victim
// is the least recently used entry however often it was read.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	var gauge atomic.Int64
	// Room for exactly two 100-byte entries.
	c := New[*fakeBuf](Config{MaxBytes: 200})
	hot, warm, cold := Key{Ref: 1}, Key{Ref: 2}, Key{Ref: 3}
	load := func(k Key) {
		t.Helper()
		v, err := c.GetOrLoad(k, 100, time.Minute, func() (*fakeBuf, error) { return newFake(&gauge), nil })
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}

	for i := 0; i < 10; i++ {
		load(hot)
	}
	load(warm)
	load(cold) // hot is least recent despite its ten reads
	if cached(c, hot) || !cached(c, warm) || !cached(c, cold) {
		t.Fatal("newcomer did not evict the least-recently-used entry")
	}
	// The probes above touched warm, then cold: warm is the victim now.
	load(hot)
	if cached(c, warm) || !cached(c, cold) || !cached(c, hot) {
		t.Fatal("a hit did not refresh recency")
	}
	if st := c.Stats(); st.Admits != 4 || st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	c.Flush()
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d after Flush, want 0", gauge.Load())
	}
}

func TestEvictionRespectsBudget(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 300})
	mk := func() (*fakeBuf, error) { return newFake(&gauge), nil }
	// Three entries fill the budget; a fourth forces an eviction of the
	// LRU victim.
	for i := uint64(1); i <= 4; i++ {
		v, err := c.GetOrLoad(Key{Ref: i}, 100, time.Minute, mk)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	st := c.Stats()
	if st.Bytes > 300 {
		t.Fatalf("bytes = %d over budget", st.Bytes)
	}
	if st.Entries > 3 {
		t.Fatalf("entries = %d, want <= 3", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no eviction recorded: %+v", st)
	}
	c.Flush()
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", gauge.Load())
	}
}

func TestTTLExpiry(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	k := Key{Ref: 9}
	v, err := c.GetOrLoad(k, 10, 10*time.Millisecond, func() (*fakeBuf, error) { return newFake(&gauge), nil })
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	time.Sleep(20 * time.Millisecond)
	if cached(c, k) {
		t.Fatal("expired entry served")
	}
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d after expiry, want 0", gauge.Load())
	}
}

func TestInvalidateKeyAndServer(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	mk := func() (*fakeBuf, error) { return newFake(&gauge), nil }
	for s := uint32(0); s < 2; s++ {
		for i := uint64(0); i < 3; i++ {
			v, err := c.GetOrLoad(Key{Server: s, Ref: i}, 10, time.Minute, mk)
			if err != nil {
				t.Fatal(err)
			}
			v.Release()
		}
	}
	// A key-level drop is a tombstone (the free path); it counts as an
	// invalidation.
	c.Deny(Key{Server: 0, Ref: 1}, time.Minute)
	if n := c.InvalidateServer(1); n != 3 {
		t.Fatalf("InvalidateServer dropped %d, want 3", n)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Invalidations != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if cached(c, Key{Server: 1, Ref: 0}) {
		t.Fatal("server-invalidated entry served")
	}
	c.Flush()
	if gauge.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", gauge.Load())
	}
}

// TestInvalidateDuringFlightPoisonsAdmit: a server invalidation or a
// key's tombstone landing mid-load hands the value to the loader but
// never caches it.
func TestInvalidateDuringFlightPoisonsAdmit(t *testing.T) {
	for name, invalidate := range map[string]func(*Cache[*fakeBuf], Key){
		"InvalidateServer": func(c *Cache[*fakeBuf], k Key) { c.InvalidateServer(k.Server) },
		"Deny":             func(c *Cache[*fakeBuf], k Key) { c.Deny(k, time.Minute) },
	} {
		var gauge atomic.Int64
		c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
		k := Key{Server: 3, Ref: 5}
		gate := make(chan struct{})
		done := make(chan *fakeBuf)
		go func() {
			v, _ := c.GetOrLoad(k, 10, time.Minute, func() (*fakeBuf, error) {
				<-gate
				return newFake(&gauge), nil
			})
			done <- v
		}()
		// Wait for the flight, then invalidate mid-load.
		deadline := time.Now().Add(2 * time.Second)
		for {
			c.mu.Lock()
			inFlight := c.flights[k] != nil
			c.mu.Unlock()
			if inFlight {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: flight never started", name)
			}
			time.Sleep(time.Millisecond)
		}
		invalidate(c, k)
		close(gate)
		v := <-done
		if v == nil {
			t.Fatalf("%s: loader value lost", name)
		}
		v.Release()
		if cached(c, k) {
			t.Fatalf("%s: poisoned flight was admitted", name)
		}
		if gauge.Load() != 0 {
			t.Fatalf("%s: gauge = %d, want 0 (value not cached)", name, gauge.Load())
		}
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache[*fakeBuf]
	if _, err := c.GetOrLoad(Key{}, 1, 0, func() (*fakeBuf, error) { t.Fatal("load ran"); return nil, nil }); err == nil {
		t.Fatal("nil cache served a value")
	}
	c.InvalidateServer(0)
	c.Flush()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDenyShortCircuits: a freed-ref tombstone denies the key, drops
// any cached payload, and expires by TTL.
func TestDenyShortCircuits(t *testing.T) {
	var gauge atomic.Int64
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	k := Key{Server: 2, Ref: 99}
	v, err := c.GetOrLoad(k, 10, time.Minute, func() (*fakeBuf, error) { return newFake(&gauge), nil })
	if err != nil {
		t.Fatal(err)
	}
	v.Release()

	c.Deny(k, 50*time.Millisecond)
	if !c.Denied(k) {
		t.Fatal("freshly denied key not denied")
	}
	if cached(c, k) {
		t.Fatal("denied key still served a cached payload")
	}
	st := c.Stats()
	if st.NegAdds != 1 || st.NegHits != 1 || st.NegEntries != 1 {
		t.Fatalf("neg stats: %+v", st)
	}
	time.Sleep(60 * time.Millisecond)
	if c.Denied(k) {
		t.Fatal("tombstone survived its TTL")
	}
}

// TestDenyClearedByEpochWatcher: InvalidateServer (the epoch-advance
// path) clears that server's tombstones and no others.
func TestDenyClearedByEpochWatcher(t *testing.T) {
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	kA := Key{Server: 1, Ref: 7}
	kB := Key{Server: 2, Ref: 7}
	c.Deny(kA, time.Minute)
	c.Deny(kB, time.Minute)
	c.InvalidateServer(1)
	if c.Denied(kA) {
		t.Fatal("epoch advance did not clear the server's tombstone")
	}
	if !c.Denied(kB) {
		t.Fatal("epoch advance cleared an unrelated server's tombstone")
	}
	c.Flush()
	if c.Denied(kB) {
		t.Fatal("Flush left a tombstone behind")
	}
}

// TestDenyBounded: the tombstone set caps at MaxNegEntries, shedding
// the oldest first; a re-denial renews a tombstone's place.
func TestDenyBounded(t *testing.T) {
	c := New[*fakeBuf](Config{MaxBytes: 1 << 20})
	key := func(i int) Key { return Key{Server: 0, Ref: uint64(100 + i)} }
	for i := 0; i < MaxNegEntries; i++ {
		c.Deny(key(i), time.Hour)
	}
	c.Deny(key(1), time.Hour) // renewed: now the newest
	c.Deny(key(MaxNegEntries), time.Hour)
	c.Deny(key(MaxNegEntries+1), time.Hour)
	if got := c.Stats().NegEntries; got != MaxNegEntries {
		t.Fatalf("tombstone set grew to %d, cap %d", got, MaxNegEntries)
	}
	for i, want := range map[int]bool{
		0: false, 2: false, // the two oldest, shed in order
		1: true, 3: true, MaxNegEntries: true, MaxNegEntries + 1: true,
	} {
		if c.Denied(key(i)) != want {
			t.Fatalf("tombstone %d denied = %v, want %v", i, !want, want)
		}
	}
}

// TestDeniedNilCache: nil-cache Denied/Deny are safe no-ops.
func TestDeniedNilCache(t *testing.T) {
	var c *Cache[*fakeBuf]
	c.Deny(Key{Server: 1, Ref: 1}, time.Minute)
	if c.Denied(Key{Server: 1, Ref: 1}) {
		t.Fatal("nil cache denied a key")
	}
}
