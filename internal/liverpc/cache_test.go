package liverpc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/pool"
)

// TestFetchRepeatHitsCache: a consumer that fetches the same ref payload
// repeatedly — the fan-out pattern where one staged argument feeds many
// calls — pays the wire once; every later Fetch and FetchLease is served
// from the session's hot-ref cache, byte-identical.
func TestFetchRepeatHitsCache(t *testing.T) {
	_, dmAddr := startDM(t, live.ServerConfig{NumPages: 256, PageSize: 4096, LeaseTTL: 2 * time.Second})
	producer := dialDM(t, dmAddr)
	consumer := dialPool(t, pool.Config{Shards: []string{dmAddr}, CacheBytes: 1 << 20})

	pc := NewCaller(producer, Config{})
	defer pc.Close()
	cc := NewCaller(consumer, Config{})
	defer cc.Close()

	body := bytes.Repeat([]byte{0x5a}, 8192) // above the inline threshold
	p, err := pc.Stage(body)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsRef() {
		t.Fatal("payload inlined; the cache path needs a ref")
	}

	for i := 0; i < 3; i++ {
		got, err := cc.Fetch(p)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("fetch %d returned wrong bytes", i)
		}
	}
	cs := consumer.CacheStats()
	if cs.Misses != 1 || cs.Hits < 2 {
		t.Fatalf("3 fetches should be 1 miss + 2 hits, got %+v", cs)
	}

	// fetchLease rides the same cache: the leased Buf is a retained hold
	// on the cached payload, released independently.
	b, err := fetchLease(cc.dm, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), body) {
		t.Fatal("fetchLease returned wrong bytes")
	}
	b.Release()
	if after := consumer.CacheStats(); after.Hits <= cs.Hits {
		t.Fatalf("fetchLease did not hit the cache: %+v", after)
	}

	if err := pc.Release(p); err != nil {
		t.Fatal(err)
	}
}

// TestForceInlineBypassesCache pins the ForceInline contract: with
// pass-by-reference disabled nothing is ever staged, so no ref exists
// for the hot-ref cache to key on — pool.Config.CacheBytes is inert and
// every payload round-trips by value.
func TestForceInlineBypassesCache(t *testing.T) {
	_, dmAddr := startDM(t, smallDM())
	cdm := dialPool(t, pool.Config{Shards: []string{dmAddr}, CacheBytes: 1 << 20})

	c := NewCaller(cdm, Config{ForceInline: true})
	defer c.Close()

	body := bytes.Repeat([]byte{0x11}, 8192)
	p, err := c.Stage(body)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsRef() {
		t.Fatal("ForceInline staged a ref")
	}
	got, err := c.Fetch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("inline fetch returned wrong bytes")
	}
	if cs := cdm.CacheStats(); cs.Hits != 0 || cs.Misses != 0 || cs.Admits != 0 {
		t.Fatalf("inline-only traffic touched the cache: %+v", cs)
	}
}
