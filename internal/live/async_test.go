package live

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/faultnet"
)

// writeAsync starts an rwrite of src at addr and returns its future, so
// a test can queue several frames on one connection before waiting.
func writeAsync(cl *Client, addr dm.RemoteAddr, src []byte) *AsyncOp {
	op := &AsyncOp{}
	cl.node.callAsync(&op.p, cl.addr, dmwire.MWrite, dmwire.WriteReq{Addr: addr}.MarshalHdr(), src)
	return op
}

// TestCallAsyncOverlaps is the deterministic pipelining proof: one node
// issues N futures back-to-back and every request reaches the server
// BEFORE any wait — impossible on the synchronous path, where request
// i+1 cannot ship until response i returns.
func TestCallAsyncOverlaps(t *testing.T) {
	const n = 4
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	srv := NewNode()
	srv.Handle(7, func(from net.Addr, body []byte) ([]byte, error) {
		arrived <- struct{}{}
		<-release
		return append([]byte("r:"), body...), nil
	})
	addr := startNode(t, srv)

	cli := NewNode()
	defer cli.Close()
	ps := make([]*pending, n)
	for i := range ps {
		ps[i] = new(pending)
		cli.callAsync(ps[i], addr, 7, nil, []byte{byte(i)})
	}
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d pipelined requests arrived before any wait", i, n)
		}
	}
	close(release)
	for i, p := range ps {
		want := []byte{'r', ':', byte(i)}
		err := p.wait(func(resp []byte) error {
			if !bytes.Equal(resp, want) {
				return fmt.Errorf("resp %q, want %q", resp, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestClientAsyncRoundTrip drives the Client-level futures the pool's
// fan-outs use end to end: a pipelined burst of StageRefAtAsync, a
// read-back of each ref, a pipelined burst of FreeRefAsync, and full
// teardown with conservation intact.
func TestClientAsyncRoundTrip(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)

	const k = 8
	payloads := make([][]byte, k)
	stages := make([]*AsyncRef, k)
	for i := range stages {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096)
		stages[i] = cl.StageRefAtAsync(dmwire.ReplicaKeyBit|uint64(100+i), nil, payloads[i])
	}
	refs := make([]dm.Ref, 0, k)
	for i, ar := range stages {
		ref, err := ar.Wait()
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		if want := dmwire.ReplicaKeyBit | uint64(100+i); ref.Key != want || ref.Size != int64(len(payloads[i])) {
			t.Fatalf("stage %d: ref %+v, want key %#x size %d", i, ref, want, len(payloads[i]))
		}
		refs = append(refs, ref)
	}
	for i, ref := range refs {
		got := make([]byte, len(payloads[i]))
		if err := cl.ReadRef(ref, 0, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("read %d corrupted", i)
		}
	}

	frees := make([]*AsyncOp, k)
	for i, ref := range refs {
		frees[i] = cl.FreeRefAsync(ref)
	}
	for i, op := range frees {
		if err := op.Wait(); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if err := cl.FreeRefAsync(refs[0]).Wait(); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("second free = %v, want dm.ErrBadRef", err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := srv.FreePages(); free != smallConfig().NumPages {
		t.Fatalf("pages leaked: %d free of %d", free, smallConfig().NumPages)
	}
}

// TestLateResponseAfterTimeoutNoLeak regresses the abandon/drain path:
// a call whose deadline fires before the (slow) handler responds must
// leave no pending-table entry behind, the late response must be dropped
// and its pooled buffer recycled without wedging the read loop, and the
// connection must stay usable for subsequent calls.
func TestLateResponseAfterTimeoutNoLeak(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	srv := NewNode()
	srv.Handle(9, func(from net.Addr, body []byte) ([]byte, error) {
		once.Do(func() { <-release }) // only the first call is slow
		return []byte("late"), nil
	})
	addr := startNode(t, srv)

	cli := NewNodeWith(NodeConfig{MaxRetries: -1})
	defer cli.Close()
	err := cli.CallConsumeWithin(addr, 9, nil, nil, 100*time.Millisecond, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("slow call returned %v, want ErrDeadline", err)
	}
	close(release) // the late response now races in

	// The same connection must still complete calls after the abandon.
	if _, err := cli.Call(addr, 9, nil); err != nil {
		t.Fatalf("connection unusable after an abandoned call: %v", err)
	}
	// And once the late response has been read and dropped, the pending
	// table is empty — the entry was removed at timeout, not leaked.
	cli.mu.Lock()
	c := cli.peers[addr]
	cli.mu.Unlock()
	if c == nil {
		t.Fatal("peer connection was torn down; the late response should not poison it")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.pmu.Lock()
		n, dead := len(c.pending), c.dead
		c.pmu.Unlock()
		if dead != nil {
			t.Fatalf("connection poisoned by a late response: %v", dead)
		}
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries leaked after abandon", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchWriterFailureUnderFaultnet exercises the writer's poison
// path on a real connection: with the link stalled, a burst of async
// writes blocks in the writer, one frame in the stalled write and the
// rest on the write lock; a partition then kills the connection, every
// future must fail (no hangs, no successes), the dropped-frame counter
// must count the frames that never went out, and after healing a fresh
// call must redial and succeed.
func TestBatchWriterFailureUnderFaultnet(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	inj := faultnet.New()
	ccfg := DefaultClientConfig()
	ccfg.Net.Dialer = injectedDialer(inj)
	ccfg.Net.MaxRetries = -1 // failures must surface, not retry away
	ccfg.Net.CallTimeout = 2 * time.Second
	ccfg.Net.AttemptTimeout = 2 * time.Second
	ccfg.HeartbeatInterval = -1
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}

	inj.Stall() // writes block in the stall gate
	// Each submission blocks until its frame is written or fails, so the
	// burst is issued from goroutines; the attempt deadline bounds every
	// one of them even if the partition below missed it.
	const burst = 8
	ops := make([]*AsyncOp, burst)
	src := bytes.Repeat([]byte{0xCD}, 512)
	var issued sync.WaitGroup
	for i := range ops {
		issued.Add(1)
		go func(i int) {
			defer issued.Done()
			ops[i] = writeAsync(cl, a, src)
		}(i)
	}
	waitWriteHeld(t, cl.node, cl.addr) // a frame is in the stalled write
	inj.Partition()                    // which fails
	issued.Wait()
	for i, op := range ops {
		if err := op.Wait(); err == nil {
			t.Fatalf("write %d succeeded across a partition with retries disabled", i)
		}
	}
	if dropped := cl.node.WriteStats().DroppedFrames; dropped == 0 {
		t.Fatal("the partition dropped no frames")
	}

	inj.Heal() // also clears the stall gate for the fresh dial below
	if err := cl.Write(a, src); err != nil {
		t.Fatalf("write after heal (fresh dial) failed: %v", err)
	}
	if err := cl.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionHealthObservesFailures covers the heartbeat satellite: a
// partition makes renewals fail, the consecutive-failure counter climbs
// and the callback fires; after healing the counter resets to zero.
func TestSessionHealthObservesFailures(t *testing.T) {
	cfg := smallConfig()
	cfg.LeaseTTL = 30 * time.Second // generous: the session must survive the blip
	_, addr := startServer(t, cfg)
	inj := faultnet.New()
	var cbFails, cbMax atomicMax
	ccfg := DefaultClientConfig()
	ccfg.Net.Dialer = injectedDialer(inj)
	ccfg.HeartbeatInterval = 50 * time.Millisecond
	ccfg.OnHeartbeatFailure = func(a string, consecutive int, err error) {
		if a != addr {
			t.Errorf("callback for unknown addr %q", a)
		}
		cbFails.add(1)
		cbMax.max(consecutive)
	}
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	if h := cl.SessionHealth(); h != 0 {
		t.Fatalf("health %d before any failure", h)
	}

	inj.Partition()
	waitFor(t, 10*time.Second, "two consecutive heartbeat failures", func() bool {
		return cbFails.load() >= 2 && cl.SessionHealth() >= 1
	})
	if cbMax.load() < 2 {
		t.Fatalf("callback never saw consecutive>=2 (got %d)", cbMax.load())
	}

	inj.Heal()
	waitFor(t, 10*time.Second, "health back to zero after heal", func() bool {
		return cl.SessionHealth() == 0
	})
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// atomicMax is a tiny int accumulator safe across goroutines.
type atomicMax struct {
	mu sync.Mutex
	v  int
}

func (a *atomicMax) add(n int) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomicMax) max(n int) {
	a.mu.Lock()
	if n > a.v {
		a.v = n
	}
	a.mu.Unlock()
}
func (a *atomicMax) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
