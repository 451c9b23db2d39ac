package live

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dmwire"
	"repro/internal/faultnet"
	"repro/internal/rpc"
)

// stampedRequest is a request payload: stamp, method, body.
func stampedRequest(session, seq uint64, m rpc.Method, body []byte) []byte {
	p := binary.BigEndian.AppendUint64(nil, session)
	p = binary.BigEndian.AppendUint64(p, seq)
	p = binary.BigEndian.AppendUint16(p, uint16(m))
	return append(p, body...)
}

// dialRaw opens a bare TCP connection to addr, closed with the test.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stampedCall sends one request with an explicit stamp over c and returns
// the response's status and body.
func stampedCall(t *testing.T, c net.Conn, session, seq uint64, m rpc.Method, body []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(c, kindRequest, seq, stampedRequest(session, seq, m, body)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, _, payload, err := readFrame(c, DefaultMaxFrameSize)
	if err != nil || kind != kindResponse || len(payload) < 1 {
		t.Fatalf("seq %d: response kind %d, %d bytes, err %v", seq, kind, len(payload), err)
	}
	return payload[0], payload[1:]
}

// slotsHeld counts the sessions a serving node keeps and the slots in
// them that hold a request's record.
func slotsHeld(n *Node) (sessions, slots int) {
	n.sessions.mu.Lock()
	defer n.sessions.mu.Unlock()
	for _, s := range n.sessions.m {
		s.mu.Lock()
		for i := range s.slots {
			if s.slots[i].seq != 0 {
				slots++
			}
		}
		s.mu.Unlock()
	}
	return len(n.sessions.m), slots
}

// TestSessionStateBounded: ten windows' worth of calls through one
// session, eight at a time, leave the server one session of at most
// sessionWindow slots — no per-request record survives its slot's reuse.
func TestSessionStateBounded(t *testing.T) {
	srv := NewNode()
	srv.HandleFast(0x0303, func(_ net.Addr, body []byte) ([]byte, error) {
		resp := getBuf(len(body)) // a pooled response: the buffer the slot keeps
		copy(resp, body)
		return resp, nil
	})
	addr := startNode(t, srv)
	cl := NewNode()
	defer cl.Close()

	const workers, calls = 8, 10 * sessionWindow
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= calls {
				if _, err := cl.Call(addr, 0x0303, make([]byte, 600)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sessions, slots := slotsHeld(srv)
	if sessions != 1 || slots > sessionWindow {
		t.Fatalf("after %d calls the server holds %d sessions, %d slots; want 1 session of ≤ %d slots",
			calls, sessions, slots, sessionWindow)
	}
	if slots > workers {
		t.Fatalf("%d slots used by %d concurrent callers: slots are not reused LIFO", slots, workers)
	}
}

// TestStaleSequenceRefused: once a slot has run a sequence, a lower one
// on that slot is refused with dmwire.ErrStale and never reaches the
// handler, over the same connection or a fresh one.
func TestStaleSequenceRefused(t *testing.T) {
	srv := NewNode()
	var runs atomic.Int32
	srv.HandleFast(0x0304, func(net.Addr, []byte) ([]byte, error) {
		runs.Add(1)
		return []byte("ran"), nil
	})
	addr := startNode(t, srv)
	c := dialRaw(t, addr)

	const session, slot = 11, 5
	if status, _ := stampedCall(t, c, session, 2*sessionWindow+slot, 0x0304, nil); status != dmwire.StatusOK {
		t.Fatalf("fresh sequence: status %d", status)
	}
	for _, conn := range []net.Conn{c, dialRaw(t, addr)} {
		status, resp := stampedCall(t, conn, session, sessionWindow+slot, 0x0304, nil)
		if err := dmwire.ErrOf(status, string(resp)); !errors.Is(err, dmwire.ErrStale) {
			t.Fatalf("lower sequence on the slot: %v, want ErrStale", err)
		}
	}
	// Generation 0 is below every stamp a caller sends.
	if status, _ := stampedCall(t, c, session, 0, 0x0304, nil); status != dmwire.StatusStale {
		t.Fatalf("sequence 0: status %d, want StatusStale", status)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1: a stale request re-executed", n)
	}
}

// TestSessionIdleExpiry drives the idle sweep with an explicit clock: a
// session no request has used for longer than sessionIdle is dropped and
// its next request starts a fresh record; a session in use is kept.
func TestSessionIdleExpiry(t *testing.T) {
	srv := NewNode()
	var runs atomic.Int32
	srv.HandleFast(0x0305, func(net.Addr, []byte) ([]byte, error) {
		runs.Add(1)
		return []byte("ran"), nil
	})
	addr := startNode(t, srv)
	c := dialRaw(t, addr)
	const busy, idle, seq = 21, 22, sessionWindow + 1

	stampedCall(t, c, busy, seq, 0x0305, nil)
	stampedCall(t, c, idle, seq, 0x0305, nil)
	now := time.Now()
	sweep(srv, now) // both seen in use
	stampedCall(t, c, busy, seq+sessionWindow, 0x0305, nil)
	sweep(srv, now.Add(sessionIdle+time.Second))
	if hasSession(srv, idle) {
		t.Fatal("a session idle past sessionIdle was kept")
	}
	if !hasSession(srv, busy) {
		t.Fatal("a session used within sessionIdle was dropped")
	}
	// The dropped session's record is gone: its last stamp runs again.
	stampedCall(t, c, idle, seq, 0x0305, nil)
	if n := runs.Load(); n != 4 {
		t.Fatalf("handler ran %d times, want 4", n)
	}
	// Idle from here on, both go: the busy one at the next sweep, the
	// fresh one a sweep after that one saw it in use.
	later := now.Add(2*sessionIdle + 2*time.Second)
	sweep(srv, later)
	if hasSession(srv, busy) || !hasSession(srv, idle) {
		t.Fatal("the sweep after the fresh session's use kept the wrong one")
	}
	sweep(srv, later.Add(sessionIdle+time.Second))
	if sessions, _ := slotsHeld(srv); sessions != 0 {
		t.Fatalf("%d sessions left after both idled out", sessions)
	}
}

// hasSession reports whether n keeps a record of session id.
func hasSession(n *Node, id uint64) bool {
	n.sessions.mu.Lock()
	defer n.sessions.mu.Unlock()
	_, ok := n.sessions.m[id]
	return ok
}

// sweep runs n's session sweep as if the time were now.
func sweep(n *Node, now time.Time) { n.sessions.sweep(now) }

// nextSlot reports the slot the session's next call will take.
func nextSlot(s *callerSession) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free[len(s.free)-1] % sessionWindow
}

// TestSlotReuseAfterFailedSend: a send whose write fails drops its
// registration, and the writer's failure hook may already have answered
// it with the dead connection's nil payload. The next call on the same
// slot must get its own response, not that stale answer.
func TestSlotReuseAfterFailedSend(t *testing.T) {
	srv := NewNode()
	srv.HandleFast(0x0305, func(_ net.Addr, body []byte) ([]byte, error) {
		return append([]byte("r:"), body...), nil
	})
	addr := startNode(t, srv)
	inj := faultnet.New()
	cl := NewNodeWith(NodeConfig{MaxRetries: -1, Dialer: injectedDialer(inj)})
	defer cl.Close()
	if _, err := cl.Call(addr, 0x0305, []byte("0")); err != nil {
		t.Fatal(err)
	}

	sess := cl.sess.Load()
	slot := nextSlot(sess)
	inj.TruncateNextWrite()
	if _, err := cl.Call(addr, 0x0305, []byte("1")); !errors.Is(err, errConnFailed) {
		t.Fatalf("call over a torn write = %v, want a connection failure", err)
	}
	if got := nextSlot(sess); got != slot {
		t.Fatalf("next call takes slot %d, want the failed call's slot %d", got, slot)
	}
	resp, err := cl.Call(addr, 0x0305, []byte("2"))
	if err != nil || string(resp) != "r:2" {
		t.Fatalf("call on the reused slot = %q, %v; want \"r:2\"", resp, err)
	}
}

// TestLateResponseSkipsNextCall: an attempt that timed out leaves no
// registration behind, so its response, arriving after the slot has been
// reused, is dropped by the read loop and never answers the next call.
func TestLateResponseSkipsNextCall(t *testing.T) {
	srv := NewNode()
	gate := make(chan struct{})
	srv.Handle(0x0306, func(_ net.Addr, body []byte) ([]byte, error) {
		if string(body) == "1" {
			<-gate
		}
		return append([]byte("r:"), body...), nil
	})
	addr := startNode(t, srv)
	cl := NewNodeWith(NodeConfig{MaxRetries: -1, CallTimeout: 100 * time.Millisecond})
	defer cl.Close()
	if _, err := cl.Call(addr, 0x0306, []byte("0")); err != nil {
		t.Fatal(err)
	}

	sess := cl.sess.Load()
	slot := nextSlot(sess)
	if _, err := cl.Call(addr, 0x0306, []byte("1")); !errors.Is(err, ErrDeadline) {
		t.Fatalf("held call = %v, want ErrDeadline", err)
	}
	// Let the held call answer, and wait until its response is on the
	// wire: it then reaches the caller ahead of the next call's.
	frames := srv.WriteStats().Frames
	close(gate)
	waitFor(t, 5*time.Second, "the late response to be written", func() bool {
		return srv.WriteStats().Frames > frames
	})
	if got := nextSlot(sess); got != slot {
		t.Fatalf("next call takes slot %d, want the timed-out call's slot %d", got, slot)
	}
	resp, err := cl.Call(addr, 0x0306, []byte("2"))
	if err != nil || string(resp) != "r:2" {
		t.Fatalf("call on the reused slot = %q, %v; want \"r:2\"", resp, err)
	}
}

// TestLatencyCountsSlotlessCalls: an async call that never got a session
// slot fails fast in wait, and still lands in the node's latency
// histogram, as a synchronous call that fails the same way does.
func TestLatencyCountsSlotlessCalls(t *testing.T) {
	cl := NewNodeWith(NodeConfig{CallTimeout: 10 * time.Millisecond})
	defer cl.Close()
	sess := cl.sess.Load()
	for i := 0; i < sessionWindow; i++ {
		if _, err := sess.acquire(time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	var p pending
	cl.callAsync(&p, "127.0.0.1:1", 0x0307, nil, nil)
	if err := p.wait(nil); !errors.Is(err, ErrDeadline) {
		t.Fatalf("slotless async call = %v, want ErrDeadline", err)
	}
	if _, err := cl.Call("127.0.0.1:1", 0x0307, nil); !errors.Is(err, ErrDeadline) {
		t.Fatalf("slotless call = %v, want ErrDeadline", err)
	}
	if got := cl.LatencyHistogram().Count(); got != 2 {
		t.Fatalf("latency histogram holds %d calls, want 2", got)
	}
}
