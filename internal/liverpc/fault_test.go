package liverpc

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/faultnet"
	"repro/internal/live"
	"repro/internal/pool"
)

// TestMidChainCrashReclaimsRefs is the liverpc chaos test: a 3-service
// chain where the middle service adopts (takes DM ownership of) every
// payload and forwards the adopted ref, then dies abruptly while holding
// those refs and
// while the client's network is misbehaving. The server's lease reaper
// must reclaim every frame the dead service held within a few TTLs —
// refcount conservation (D6) and lease-reaping (D8) hold end to end
// through the application layer, with zero leaked pages.
func TestMidChainCrashReclaimsRefs(t *testing.T) {
	ttl := 150 * time.Millisecond
	srv, dmAddr := startDM(t, live.ServerConfig{
		NumPages: 512, PageSize: 4096,
		LeaseTTL: ttl, DrainTimeout: 100 * time.Millisecond,
	})
	initialFree := srv.FreePages()
	cfg := Config{InlineThreshold: 256}

	// Tail: terminal aggregator.
	tdm := dialDM(t, dmAddr)
	tail := NewService("tail", tdm, cfg)
	tail.Handle("sum", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		buf, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		return []Payload{U64(apps.Aggregate(buf))}, nil
	})
	tailAddr := serveService(t, tail)

	// Mid: adopts every payload (accumulating refs it never frees, as a
	// caching tier would) and forwards what it adopted: the producer's
	// key is dead once mid owns the ref.
	mdm, err := newSession(pool.Config{Shards: []string{dmAddr}})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Int32
	mid := NewService("mid", mdm, cfg)
	mid.Handle("sum", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		own, err := ctx.Adopt(args[0])
		if err != nil {
			return nil, err
		}
		held.Add(1)
		return ctx.Call(tailAddr, "sum", own)
	})
	midLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mid.Serve(midLn)
	midAddr := midLn.Addr().String()

	// Client with fault injection on its transport.
	inj := faultnet.New()
	cdm := dialDM(t, dmAddr)
	ccfg := cfg
	ccfg.Net.Dialer = injDialer(inj)
	ccfg.Net.AttemptTimeout = time.Second
	c := NewCaller(cdm, ccfg)
	defer c.Close()

	payload := make([]byte, 8*1024)
	apps.FillPayload(payload, 3)
	want := apps.Aggregate(payload)
	doCall := func() (uint64, error) {
		arg, err := c.Stage(payload)
		if err != nil {
			return 0, err
		}
		defer c.Release(arg)
		res, err := c.CallWithin(midAddr, "sum", 2*time.Second, arg)
		if err != nil {
			return 0, err
		}
		return res[0].AsU64()
	}

	// Healthy phase, with one torn write mid-stream to keep the retry
	// machinery honest under load.
	for i := 0; i < 6; i++ {
		if i == 3 {
			inj.TruncateNextWrite()
		}
		got, err := doCall()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("call %d: sum = %d, want %d", i, got, want)
		}
	}
	if held.Load() != 6 {
		t.Fatalf("mid adopted %d refs, want 6", held.Load())
	}
	if srv.LiveRefs() != 6 { // mid adopted every stage; only its refs remain
		t.Fatalf("LiveRefs before crash = %d, want 6", srv.LiveRefs())
	}

	// Crash mid while it holds 6 adopted refs: kill its listener and node
	// so in-flight work dies, and close its DM transport without freeing
	// anything — heartbeats stop, the lease runs out, the reaper collects.
	mid.Close()
	mdm.Close()

	// Calls through the dead hop must fail, not hang.
	if _, err := doCall(); err == nil {
		t.Fatal("call through crashed mid unexpectedly succeeded")
	}

	// The reaper must reclaim every frame mid held: zero live refs and
	// every page back in the free list within a few TTLs.
	deadline := time.Now().Add(20 * ttl)
	for time.Now().Before(deadline) {
		if srv.LiveRefs() == 0 && srv.FreePages() == initialFree {
			break
		}
		time.Sleep(ttl / 4)
	}
	if n := srv.LiveRefs(); n != 0 {
		t.Fatalf("LiveRefs after reap = %d, want 0 (ref leak)", n)
	}
	if free := srv.FreePages(); free != initialFree {
		t.Fatalf("FreePages after reap = %d, want %d (frame leak)", free, initialFree)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The surviving tail still works when addressed directly.
	arg, err := c.Stage(payload)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(arg)
	res, err := c.Call(tailAddr, "sum", arg)
	if err != nil {
		t.Fatalf("surviving tail after crash: %v", err)
	}
	if got, _ := res[0].AsU64(); got != want {
		t.Fatalf("tail sum after crash = %d, want %d", got, want)
	}
}

// injDialer adapts a faultnet injector into a live.NodeConfig dialer.
func injDialer(inj *faultnet.Injector) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	}
}
