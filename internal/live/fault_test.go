package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/faultnet"
	"repro/internal/rpc"
)

// injectedDialer routes a node's outbound connections through inj.
func injectedDialer(inj *faultnet.Injector) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	}
}

// --- defensive framing ---

func TestFrameSizeCapUnit(t *testing.T) {
	// A cap of N admits N bytes of bulk payload plus the fixed protocol
	// overhead, and nothing more.
	const cap = 100
	limit := cap + frameOverhead
	var over, at bytes.Buffer
	if err := writeFrame(&over, kindRequest, 1, make([]byte, limit+1)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&at, kindRequest, 1, make([]byte, limit)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readFrame(bytes.NewReader(over.Bytes()), cap); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("readFrame past the cap = %v, want errFrameTooLarge", err)
	}
	var hdr [frameHeaderSize]byte
	if _, _, _, err := readFrameBuf(bytes.NewReader(over.Bytes()), hdr[:], cap); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("readFrameBuf past the cap = %v, want errFrameTooLarge", err)
	}
	if _, _, _, err := readFrame(bytes.NewReader(at.Bytes()), cap); err != nil {
		t.Fatalf("readFrame at exactly the cap = %v", err)
	}
}

// TestOversizedFrameClosesConn sends a frame whose length prefix exceeds
// the server's cap over a raw socket; the server must drop the connection
// without allocating the claimed payload.
func TestOversizedFrameClosesConn(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxFrameSize = 4096
	_, addr := startServer(t, cfg)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(hdr, 1<<20) // claims 1 MiB > 4 KiB cap
	hdr[4] = kindRequest
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
}

// TestMalformedFrameClosesConn covers bad frame kinds and truncated
// requests: the server must close the stream, not panic or hang.
func TestMalformedFrameClosesConn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		kind    byte
	}{
		{"unknown kind", []byte{0, 1, 2, 3}, 9},
		{"response kind to server", []byte{dmwire.StatusOK}, kindResponse},
		{"request shorter than its stamp", []byte{1, 2, 3}, kindRequest},
		{"request without a method", make([]byte, stampSize+1), kindRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, smallConfig())
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var buf bytes.Buffer
			if err := writeFrame(&buf, tc.kind, 1, tc.payload); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatal("server kept the connection after a malformed frame")
			}
		})
	}
}

// TestSlowHandlerSemaphore verifies the per-connection cap on slow-handler
// fan-out: with MaxSlowPerConn=2, at most two handler goroutines run at
// once no matter how many requests are multiplexed on the connection.
func TestSlowHandlerSemaphore(t *testing.T) {
	const cap = 2
	scfg := DefaultNodeConfig()
	scfg.MaxSlowPerConn = cap
	srv := NewNodeWith(scfg)
	var cur, maxSeen atomic.Int32
	release := make(chan struct{})
	srv.Handle(rpc.Method(0x0300), func(net.Addr, []byte) ([]byte, error) {
		c := cur.Add(1)
		for {
			m := maxSeen.Load()
			if c <= m || maxSeen.CompareAndSwap(m, c) {
				break
			}
		}
		<-release
		cur.Add(-1)
		return []byte("ok"), nil
	})
	addr := startNode(t, srv)

	cl := NewNode()
	defer cl.Close()
	const calls = 6
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Call(addr, rpc.Method(0x0300), nil)
			errs <- err
		}()
	}
	// Wait until the cap is saturated, then confirm it holds.
	deadline := time.Now().Add(5 * time.Second)
	for cur.Load() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := cur.Load(); got != cap {
		t.Fatalf("concurrent slow handlers = %d, want exactly %d", got, cap)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := maxSeen.Load(); got > cap {
		t.Fatalf("slow-handler concurrency peaked at %d, cap is %d", got, cap)
	}
}

// TestSlowWorkersReused: slow requests on one connection reuse its
// persistent worker — 1000 sequential calls start exactly one — and
// closing the connection ends every worker.
func TestSlowWorkersReused(t *testing.T) {
	srv := NewNode()
	srv.Handle(rpc.Method(0x0301), func(_ net.Addr, body []byte) ([]byte, error) { return body, nil })
	addr := startNode(t, srv)
	base := runtime.NumGoroutine()

	cl := NewNode()
	for i := 0; i < 1000; i++ {
		got, err := cl.Call(addr, rpc.Method(0x0301), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("call %d echoed %v", i, got)
		}
	}
	if n := srv.slowWorkers.Load(); n != 1 {
		t.Fatalf("1000 sequential slow calls started %d workers, want 1", n)
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the connection closed, %d before it opened", n, base)
	}
}

// --- deadlines and retries ---

// TestStalledServerCallDeadline is the issue's acceptance criterion for
// deadlines: a Call against a server that accepts but never responds must
// return a deadline error within the configured budget and leave no
// goroutines behind.
func TestStalledServerCallDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var hmu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hmu.Lock()
			held = append(held, c) // keep open, never read or respond
			hmu.Unlock()
		}
	}()
	defer func() {
		hmu.Lock()
		for _, c := range held {
			c.Close()
		}
		hmu.Unlock()
	}()

	runtime.GC()
	before := runtime.NumGoroutine()

	cfg := DefaultNodeConfig()
	cfg.CallTimeout = 300 * time.Millisecond
	cfg.AttemptTimeout = 200 * time.Millisecond
	n := NewNodeWith(cfg)
	start := time.Now()
	_, err = n.Call(ln.Addr().String(), rpc.Method(0x0400), []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Call against stalled server = %v, want ErrDeadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline took %v, budget was 300ms", elapsed)
	}
	n.Close()

	// No goroutine leak: the caller, read loop, and timers must all be
	// gone once the node is closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDedupTokenAppliesOnce exercises the at-most-once guarantee directly:
// the same stamp sent twice — the second time over a fresh connection, as
// a retry would — runs the handler once and replays its bytes; the next
// sequence on that slot runs the handler again.
func TestDedupTokenAppliesOnce(t *testing.T) {
	srv := NewNode()
	var count atomic.Int32
	srv.Handle(rpc.Method(0x0301), func(net.Addr, []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("run-%d", count.Add(1))), nil
	})
	addr := startNode(t, srv)

	const session, seq = 7, sessionWindow + 9
	get := func(seq uint64) string {
		t.Helper()
		status, resp := stampedCall(t, dialRaw(t, addr), session, seq, 0x0301, nil)
		if status != dmwire.StatusOK {
			t.Fatalf("seq %d: status %d %q", seq, status, resp)
		}
		return string(resp)
	}
	if r1, r2 := get(seq), get(seq); r1 != "run-1" || r2 != "run-1" {
		t.Fatalf("duplicate stamp: got %q then %q, want run-1 twice", r1, r2)
	}
	if n := count.Load(); n != 1 {
		t.Fatalf("handler ran %d times for one stamp, want 1", n)
	}
	if r3 := get(seq + sessionWindow); r3 != "run-2" {
		t.Fatalf("next sequence on the slot: got %q, want run-2", r3)
	}
}

// TestTokenedCallRetriesAcrossTornWrite kills the client's first request
// write mid-frame; the retry path must redial, and the call's stamp must
// keep it at-most-once.
func TestTokenedCallRetriesAcrossTornWrite(t *testing.T) {
	srv := NewNode()
	var count atomic.Int32
	srv.Handle(rpc.Method(0x0302), func(_ net.Addr, body []byte) ([]byte, error) {
		count.Add(1)
		return append([]byte("echo:"), body...), nil
	})
	addr := startNode(t, srv)

	inj := faultnet.New()
	ccfg := DefaultNodeConfig()
	ccfg.Dialer = injectedDialer(inj)
	ccfg.AttemptTimeout = time.Second
	cl := NewNodeWith(ccfg)
	defer cl.Close()

	inj.TruncateNextWrite()
	var got string
	err := cl.CallConsume(addr, rpc.Method(0x0302), nil, []byte("m1"), func(resp []byte) error {
		got = string(resp)
		return nil
	})
	if err != nil {
		t.Fatalf("call did not survive a torn write: %v", err)
	}
	if got != "echo:m1" {
		t.Fatalf("got %q, want echo:m1", got)
	}
	if n := count.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	if r := cl.ops.retries.Load(); r < 1 {
		t.Fatalf("Retries = %d after a torn write, want ≥ 1", r)
	}
}

// --- session leases ---

// leaseConfig is a small pool with a short lease for reaping tests.
func leaseConfig(ttl time.Duration) ServerConfig {
	return ServerConfig{NumPages: 512, PageSize: 512, LeaseTTL: ttl, DrainTimeout: 100 * time.Millisecond}
}

// TestLeaseExpiryReapsSession: a client that never heartbeats loses its
// session after one TTL — pages and refs come back, and later calls see
// dm.ErrBadAddress.
func TestLeaseExpiryReapsSession(t *testing.T) {
	ttl := 150 * time.Millisecond
	srv, addr := startServer(t, leaseConfig(ttl))
	initial := srv.FreePages()

	cfg := DefaultClientConfig()
	cfg.HeartbeatInterval = -1 // simulate a client that dies silently
	cl, err := DialConfig(cfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Alloc(4 * 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(a, bytes.Repeat([]byte("z"), 4*512)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StageRef(bytes.Repeat([]byte("s"), 3*512)); err != nil {
		t.Fatal(err)
	}
	if srv.FreePages() == initial {
		t.Fatal("setup: expected pages in use")
	}

	deadline := time.Now().Add(20 * ttl)
	for srv.FreePages() != initial || srv.LiveRefs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease reap incomplete: free=%d/%d refs=%d", srv.FreePages(), initial, srv.LiveRefs())
		}
		time.Sleep(ttl / 10)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reaped session is gone for good.
	if _, err := cl.Alloc(512); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("alloc after reap = %v, want dm.ErrBadAddress", err)
	}
}

// TestHeartbeatKeepsSessionAlive: with heartbeats on, a session survives
// many TTLs of idleness.
func TestHeartbeatKeepsSessionAlive(t *testing.T) {
	ttl := 150 * time.Millisecond
	_, addr := startServer(t, leaseConfig(ttl))
	cfg := DefaultClientConfig() // HeartbeatInterval 0 -> TTL/3
	cl, err := DialConfig(cfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * ttl) // idle across several lease windows
	if err := cl.Write(a, []byte("still here")); err != nil {
		t.Fatalf("session reaped despite heartbeats: %v", err)
	}
	got := make([]byte, 10)
	if err := cl.Read(a, got); err != nil || string(got) != "still here" {
		t.Fatalf("read after idle = %q, %v", got, err)
	}
}

// TestBusySessionOutlivesLease drives the sweep with an explicit clock:
// a client that sends no heartbeat but keeps making DM calls keeps its
// session across many lease TTLs, because every request renews it. Once
// it stops, the session is reaped within a few TTLs and the pool is back
// at its baseline.
func TestBusySessionOutlivesLease(t *testing.T) {
	ttl := time.Hour // the test drives the sweep by hand
	srv, addr := startServer(t, leaseConfig(ttl))
	baseFree, baseRefs := srv.FreePages(), srv.LiveRefs()
	cfg := DefaultClientConfig()
	cfg.HeartbeatInterval = -1
	cl, err := DialConfig(cfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Alloc(2 * 512)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cl.StageRef(bytes.Repeat([]byte("b"), 3*512))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for step := 0; step < 24; step++ { // six TTLs, one call per TTL/4
		if err := cl.Write(a, []byte{byte(step)}); err != nil {
			t.Fatalf("after %v of calls without a heartbeat: %v", time.Duration(step)*ttl/4, err)
		}
		now = now.Add(ttl / 4)
		sweep(srv.node, now)
	}
	got := make([]byte, ref.Size)
	if err := cl.ReadRef(ref, 0, got); err != nil {
		t.Fatalf("busy session lost its ref: %v", err)
	}

	// Stopped: reaped within a few TTLs of its last call.
	sess := callerSessionOf(srv, cl)
	for step := 0; !sess.gone.Load(); step++ {
		if step > 12 {
			t.Fatal("an idle session outlived three lease TTLs")
		}
		now = now.Add(ttl / 4)
		sweep(srv.node, now)
	}
	if free, refs := srv.FreePages(), srv.LiveRefs(); free != baseFree || refs != baseRefs {
		t.Fatalf("after the reap: FreePages %d, LiveRefs %d (want %d, %d)", free, refs, baseFree, baseRefs)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReapedSessionStampRefused: after a reap, an op stamped with the old
// session answers dm.ErrBadAddress and never runs; Reregister then
// starts a fresh session, and nothing of the old one comes back.
func TestReapedSessionStampRefused(t *testing.T) {
	srv, addr := startServer(t, leaseConfig(time.Hour)) // reaped by hand
	baseFree := srv.FreePages()
	cl := dialClient(t, addr)
	data := bytes.Repeat([]byte("r"), 2*512)
	a, err := cl.Alloc(int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(a, data); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.StageRef(data)
	if err != nil {
		t.Fatal(err)
	}
	old := cl.node.sess.Load().id
	reapNow(t, srv, cl)

	puts := srv.StagePuts()
	key := dmwire.ReplicaKeyBit | 71
	if _, err := cl.StageRefAt(key, data); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("stage_at stamped with the reaped session: %v, want dm.ErrBadAddress", err)
	}
	if _, err := cl.Alloc(512); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("alloc stamped with the reaped session: %v, want dm.ErrBadAddress", err)
	}
	if n := srv.StagePuts(); n != puts {
		t.Fatalf("StagePuts %d, was %d: a reaped session's stage_at ran", n, puts)
	}
	if free, refs := srv.FreePages(), srv.LiveRefs(); free != baseFree || refs != 0 {
		t.Fatalf("after the refused ops: FreePages %d, LiveRefs %d (want %d, 0)", free, refs, baseFree)
	}

	if err := cl.Reregister(); err != nil {
		t.Fatal(err)
	}
	if cl.node.sess.Load().id == old {
		t.Fatal("Reregister kept the reaped session's ID")
	}
	if err := cl.Read(a, make([]byte, len(data))); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("the reaped session's region after Reregister: %v, want dm.ErrBadAddress", err)
	}
	if err := cl.ReadRef(ref, 0, make([]byte, ref.Size)); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("the reaped session's ref after Reregister: %v, want dm.ErrBadRef", err)
	}
	if _, err := cl.StageRefAt(key, data); err != nil {
		t.Fatalf("stage_at on the fresh session: %v", err)
	}
	if n := srv.StagePuts(); n != puts+1 {
		t.Fatalf("StagePuts %d, want %d", n, puts+1)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosClientKilledMidBurst is the issue's acceptance scenario: client
// A is killed mid-burst (a torn frame, then a full partition) while
// surviving client B keeps working. The server must reclaim every frame A
// held within a small multiple of the lease TTL, B must see no errors, and
// the D6/D7 conservation invariants must hold afterwards.
func TestChaosClientKilledMidBurst(t *testing.T) {
	ttl := 250 * time.Millisecond
	srv, addr := startServer(t, leaseConfig(ttl))
	initial := srv.FreePages()

	// Victim A: all traffic through a fault injector; fast failure knobs
	// so the kill doesn't stall the test.
	inj := faultnet.New()
	acfg := DefaultClientConfig()
	acfg.HeartbeatInterval = ttl / 5
	acfg.Net.Dialer = injectedDialer(inj)
	acfg.Net.CallTimeout = 500 * time.Millisecond
	acfg.Net.AttemptTimeout = 150 * time.Millisecond
	acfg.Net.DialTimeout = 150 * time.Millisecond
	acfg.Net.MaxRetries = 1
	a, err := DialConfig(acfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Register(); err != nil {
		t.Fatal(err)
	}

	// Survivor B on a clean connection, hammering the server throughout.
	b := dialClient(t, addr)
	stopB := make(chan struct{})
	bErr := make(chan error, 1)
	var bWG sync.WaitGroup
	bWG.Add(1)
	go func() {
		defer bWG.Done()
		buf := make([]byte, 1024)
		got := make([]byte, 1024)
		for i := 0; ; i++ {
			select {
			case <-stopB:
				return
			default:
			}
			ra, err := b.Alloc(1024)
			if err != nil {
				bErr <- fmt.Errorf("B alloc: %w", err)
				return
			}
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if err := b.Write(ra, buf); err != nil {
				bErr <- fmt.Errorf("B write: %w", err)
				return
			}
			if err := b.Read(ra, got); err != nil {
				bErr <- fmt.Errorf("B read: %w", err)
				return
			}
			if !bytes.Equal(got, buf) {
				bErr <- fmt.Errorf("B read corrupted at iter %d", i)
				return
			}
			if err := b.Free(ra); err != nil {
				bErr <- fmt.Errorf("B free: %w", err)
				return
			}
		}
	}()

	// A bursts allocations, writes, and staged refs; at iteration 20 its
	// next frame is torn mid-write, then the network partitions — the
	// moral equivalent of SIGKILL mid-burst.
	payload := bytes.Repeat([]byte("A"), 1500)
	for i := 0; i < 40; i++ {
		if i == 20 {
			inj.CutAfter(7) // tear the next frame inside its header
		}
		if i == 21 {
			inj.Partition()
		}
		if ra, err := a.Alloc(1500); err == nil {
			_ = a.Write(ra, payload)
		}
		_, _ = a.StageRef(payload)
	}
	a.Close() // the process is "dead"; its lease must lapse

	// Acceptance: everything A held is reclaimed within a few TTLs while
	// B keeps running. B churns its own pages, so first wait for A's refs
	// to vanish, then stop B and wait for full conservation.
	deadline := time.Now().Add(20 * ttl)
	for srv.LiveRefs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead client's refs not reaped: %d live", srv.LiveRefs())
		}
		time.Sleep(ttl / 10)
	}
	close(stopB)
	bWG.Wait()
	select {
	case err := <-bErr:
		t.Fatalf("surviving client failed during the chaos: %v", err)
	default:
	}
	b.Close() // B stops heartbeating; its session lapses too

	for srv.FreePages() != initial {
		if time.Now().After(deadline.Add(20 * ttl)) {
			t.Fatalf("pool not conserved after reaps: free=%d, want %d", srv.FreePages(), initial)
		}
		time.Sleep(ttl / 10)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseForceReapsSessions: Close drains and then reclaims every
// session even when leases are disabled, so a server shuts down with a
// conserved pool.
func TestCloseForceReapsSessions(t *testing.T) {
	srv := NewServer(ServerConfig{NumPages: 64, PageSize: 512}) // LeaseTTL 0: no sweeper
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	ra, err := cl.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(ra, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StageRef(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if srv.FreePages() == 64 {
		t.Fatal("setup: expected pages in use")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := srv.FreePages(); got != 64 {
		t.Fatalf("FreePages after Close = %d, want 64", got)
	}
	if srv.LiveRefs() != 0 {
		t.Fatalf("LiveRefs after Close = %d, want 0", srv.LiveRefs())
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsTimeoutVsTransportSplit pins the per-class failure counters:
// a stalled (alive but unresponsive) server must be attributed to
// Timeouts, while a dead endpoint (dial refused) must be attributed to
// TransportErrors — Retries alone cannot tell the two apart, and the
// load harness reports them separately.
func TestStatsTimeoutVsTransportSplit(t *testing.T) {
	// Timeout class, request path: register over a faultnet conn, stage a
	// ref, then delay writes past every deadline (the server is alive but
	// the fabric is too slow) — the attempt reaches its pending-wait only
	// after its deadline has passed and dies with ErrDeadline.
	_, addr := startServer(t, smallConfig())
	inj := faultnet.New()
	ccfg := DefaultClientConfig()
	ccfg.HeartbeatInterval = -1 // keep lease renewals out of the counters
	ccfg.Net.Dialer = injectedDialer(inj)
	ccfg.Net.CallTimeout = 400 * time.Millisecond
	ccfg.Net.AttemptTimeout = 100 * time.Millisecond
	ccfg.Net.MaxRetries = 2
	ccfg.Net.RetryBackoff = 5 * time.Millisecond
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.StageRef(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Timeouts != 0 || st.TransportErrors != 0 {
		t.Fatalf("healthy-path stats already classified failures: %+v", st)
	}
	inj.SetWriteDelay(time.Second)
	if err := cl.ReadRef(ref, 0, make([]byte, 512)); err == nil {
		t.Fatal("read through a stalled fabric succeeded")
	}
	st := cl.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("stalled read classified no timeouts: %+v", st)
	}
	if st.TransportErrors != 0 {
		t.Fatalf("stalled read misclassified as transport errors: %+v", st)
	}
	inj.SetWriteDelay(0)

	// Timeout class, submission path: a full write stall holds an async
	// frame's write until its attempt deadline fails it, and that failure
	// must be attributed to Timeouts too. Retries are off on this client,
	// so the one failed write is the whole story.
	acfg := DefaultClientConfig()
	acfg.HeartbeatInterval = -1
	acfg.Net.Dialer = injectedDialer(inj)
	acfg.Net.CallTimeout = 400 * time.Millisecond
	acfg.Net.AttemptTimeout = 100 * time.Millisecond
	acfg.Net.MaxRetries = 0
	acl, err := DialConfig(acfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := acl.Register(); err != nil {
		t.Fatal(err)
	}
	aref, err := acl.StageRef(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	inj.Stall()
	if err := acl.FreeRefAsync(aref).Wait(); err == nil {
		t.Fatal("async op through a stalled fabric succeeded")
	}
	ast := acl.Stats()
	inj.Unstall()
	if ast.Timeouts == 0 {
		t.Fatalf("write stall classified no timeouts: %+v", ast)
	}
	if ast.TransportErrors != 0 {
		t.Fatalf("write stall misclassified as transport errors: %+v", ast)
	}
	acl.Close()

	// Transport class: connect to a live server, then kill it — the
	// poisoned conn and every refused redial fail in the transport, never
	// reaching a deadline.
	vsrv := NewServer(smallConfig())
	vln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vdone := make(chan struct{})
	go func() {
		defer close(vdone)
		vsrv.Serve(vln)
	}()
	dcfg := DefaultClientConfig()
	dcfg.HeartbeatInterval = -1
	dcfg.Net.CallTimeout = 400 * time.Millisecond
	dcfg.Net.AttemptTimeout = 100 * time.Millisecond
	dcfg.Net.DialTimeout = 100 * time.Millisecond
	dcfg.Net.MaxRetries = 1
	dcfg.Net.RetryBackoff = 5 * time.Millisecond
	dead, err := DialConfig(dcfg, vln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	if err := dead.Register(); err != nil {
		t.Fatal(err)
	}
	if err := vsrv.Close(); err != nil {
		t.Fatal(err)
	}
	<-vdone
	time.Sleep(50 * time.Millisecond) // let the read loop poison the conn
	if _, err := dead.StageRef(make([]byte, 64)); err == nil {
		t.Fatal("stage against a dead endpoint succeeded")
	}
	dst := dead.Stats()
	if dst.TransportErrors == 0 {
		t.Fatalf("dead endpoint classified no transport errors: %+v", dst)
	}
	if dst.Timeouts != 0 {
		t.Fatalf("dead endpoint misclassified as timeouts: %+v", dst)
	}
}

// TestFailuresCountOnlyTransientEnds: Stats.Failures counts the calls a
// transient error ended, never an application answer. A free of an
// unknown key answers dm.ErrBadRef and leaves Failures and Retries
// unchanged; an idempotent read that runs out of retries across a
// partition counts exactly one failure.
func TestFailuresCountOnlyTransientEnds(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	inj := faultnet.New()
	ccfg := DefaultClientConfig()
	ccfg.HeartbeatInterval = -1
	ccfg.Net.Dialer = injectedDialer(inj)
	ccfg.Net.MaxRetries = 2
	ccfg.Net.RetryBackoff = time.Millisecond
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.StageRef(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}

	before := cl.Stats()
	if err := cl.FreeRef(dm.Ref{Key: ref.Key + 1, Size: 512}); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("free of an unknown key: %v, want dm.ErrBadRef", err)
	}
	after := cl.Stats()
	if after.Failures != before.Failures || after.Retries != before.Retries {
		t.Fatalf("an ErrBadRef answer moved Failures %d -> %d, Retries %d -> %d",
			before.Failures, after.Failures, before.Retries, after.Retries)
	}

	inj.Partition()
	before = cl.Stats()
	if err := cl.ReadRef(ref, 0, make([]byte, 512)); err == nil {
		t.Fatal("read across a partition succeeded")
	}
	after = cl.Stats()
	inj.Heal()
	if d := after.Failures - before.Failures; d != 1 {
		t.Fatalf("a read that ran out of retries counted %d failures, want 1", d)
	}
	if d := after.Retries - before.Retries; d != 2 {
		t.Fatalf("the partitioned read retried %d times, want 2", d)
	}
}
