package live

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// testWriteConn is a net.Conn stub for exercising the writer without
// sockets: injectable write and SetWriteDeadline errors, the last
// deadline armed, and byte/call accounting.
type testWriteConn struct {
	mu       sync.Mutex
	writeErr error // returned by every Write once set
	sdErr    error // returned by every SetWriteDeadline once set
	deadline time.Time
	wrote    int
	writes   int
}

func (c *testWriteConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	c.wrote += len(b)
	return len(b), nil
}

func (c *testWriteConn) totals() (bytes, calls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrote, c.writes
}

func (c *testWriteConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (c *testWriteConn) Close() error                    { return nil }
func (c *testWriteConn) LocalAddr() net.Addr             { return nil }
func (c *testWriteConn) RemoteAddr() net.Addr            { return nil }
func (c *testWriteConn) SetDeadline(time.Time) error     { return nil }
func (c *testWriteConn) SetReadDeadline(time.Time) error { return nil }
func (c *testWriteConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sdErr != nil {
		return c.sdErr
	}
	c.deadline = t
	return nil
}

// TestBatchWriterFailureDrain proves the poison path: a write error
// fires the failure hook exactly once and counts the frame as dropped,
// and later writes fail fast with the same error, dropped too, without
// touching the socket.
func TestBatchWriterFailureDrain(t *testing.T) {
	wantErr := errors.New("boom")
	var stats writeStats
	var hookCalls int
	var hookErr error
	tc := &testWriteConn{writeErr: wantErr}
	w := &connWriter{c: tc, stats: &stats, onFail: func(err error) {
		hookCalls++
		hookErr = err
	}}
	if err := w.write([]byte("head"), []byte("body"), time.Time{}); !errors.Is(err, wantErr) {
		t.Fatalf("write = %v, want %v", err, wantErr)
	}
	_, calls := tc.totals()
	const later = 3
	for i := 0; i < later; i++ {
		if err := w.write([]byte("x"), nil, time.Time{}); !errors.Is(err, wantErr) {
			t.Fatalf("write %d after death = %v, want %v", i, err, wantErr)
		}
	}
	if hookCalls != 1 || !errors.Is(hookErr, wantErr) {
		t.Fatalf("failure hook: %d calls, err %v; want 1 call of %v", hookCalls, hookErr, wantErr)
	}
	if _, after := tc.totals(); after != calls {
		t.Fatalf("a dead writer wrote to the socket %d more times", after-calls)
	}
	if stats.frames.Load() != 0 || stats.bytes.Load() != 0 {
		t.Fatalf("frames=%d bytes=%d counted as written on a dead conn", stats.frames.Load(), stats.bytes.Load())
	}
	if got := stats.dropped.Load(); got != 1+later {
		t.Fatalf("dropped = %d, want %d", got, 1+later)
	}

	// A writer the owner killed fails the same way, with the owner's error.
	ownerErr := errors.New("conn failed")
	w2 := &connWriter{c: &testWriteConn{}, stats: &stats}
	w2.kill(ownerErr)
	w2.kill(errors.New("second kill")) // idempotent: the first error stays
	if err := w2.write([]byte("x"), nil, time.Time{}); !errors.Is(err, ownerErr) {
		t.Fatalf("write after kill = %v, want %v", err, ownerErr)
	}
}

// TestBatchWriterDeadlineArmFailure: a connection whose deadline arm
// fails is poisoned exactly like a failed write, without a byte written.
func TestBatchWriterDeadlineArmFailure(t *testing.T) {
	armErr := errors.New("deadline arm failed")
	var stats writeStats
	var failed error
	tc := &testWriteConn{sdErr: armErr}
	w := &connWriter{c: tc, stats: &stats, onFail: func(err error) { failed = err }}
	if err := w.write([]byte("x"), []byte("y"), time.Time{}); !errors.Is(err, armErr) {
		t.Fatalf("write with failing deadline arm = %v, want %v", err, armErr)
	}
	if !errors.Is(failed, armErr) {
		t.Fatalf("poisoned with %v, want %v", failed, armErr)
	}
	if _, calls := tc.totals(); calls != 0 {
		t.Fatal("wrote to the socket after the deadline arm failed")
	}
	if stats.dropped.Load() != 1 {
		t.Fatalf("dropped = %d, want 1", stats.dropped.Load())
	}
}

// TestBatchWriterDirectPath checks one frame's trip through write: head
// and body both reach the socket, the accounting counts one frame of
// their combined size, and the deadline armed is the frame's own, else
// writeTimeout from now.
func TestBatchWriterDirectPath(t *testing.T) {
	var stats writeStats
	tc := &testWriteConn{}
	w := &connWriter{c: tc, stats: &stats}
	body := make([]byte, 64<<10)
	dl := time.Now().Add(time.Hour)
	if err := w.write(body[:13], body[13:], dl); err != nil {
		t.Fatal(err)
	}
	if wrote, _ := tc.totals(); wrote != len(body) {
		t.Fatalf("conn saw %d bytes, want %d", wrote, len(body))
	}
	if !tc.deadline.Equal(dl) {
		t.Fatalf("armed deadline %v, want the frame's %v", tc.deadline, dl)
	}
	before := time.Now()
	if err := w.write([]byte("head-only"), nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if lo := before.Add(writeTimeout); tc.deadline.Before(lo) || tc.deadline.After(time.Now().Add(writeTimeout)) {
		t.Fatalf("armed deadline %v, want writeTimeout from the write", tc.deadline)
	}
	if stats.frames.Load() != 2 || stats.dropped.Load() != 0 {
		t.Fatalf("accounting: frames=%d dropped=%d, want 2/0", stats.frames.Load(), stats.dropped.Load())
	}
	if want := uint64(len(body) + len("head-only")); stats.bytes.Load() != want {
		t.Fatalf("bytes = %d, want %d", stats.bytes.Load(), want)
	}
	if len(w.segs) != 0 {
		t.Fatalf("write left %d segments behind", len(w.segs))
	}
}

// TestStalledWriteFailsWaitingCaller pins what a caller waiting for the
// write lock sees when the write ahead of it stalls: it fails when that
// write's deadline fails the connection, long before its own deadline.
func TestStalledWriteFailsWaitingCaller(t *testing.T) {
	srv := NewNode()
	srv.Handle(7, func(net.Addr, []byte) ([]byte, error) { return []byte("ok"), nil })
	addr := startNode(t, srv)
	inj := faultnet.New()
	cli := NewNodeWith(NodeConfig{
		Dialer:         injectedDialer(inj),
		MaxRetries:     -1, // a retry would redial into the stall
		AttemptTimeout: time.Minute,
	})
	defer cli.Close()
	if _, err := cli.Call(addr, 7, nil); err != nil {
		t.Fatal(err)
	}

	inj.Stall()
	defer inj.Unstall()
	const first, second = 200 * time.Millisecond, 30 * time.Second
	start := time.Now()
	firstErr := make(chan error, 1)
	go func() { firstErr <- cli.CallConsumeWithin(addr, 7, nil, nil, first, nil) }()
	waitWriteHeld(t, cli, addr) // the first write is in the stall
	err := cli.CallConsumeWithin(addr, 7, nil, nil, second, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("second call on a stalled connection succeeded")
	}
	if limit := first + 2*time.Second; elapsed > limit {
		t.Fatalf("second call failed after %v, want within the first call's %v deadline plus slack (%v)", elapsed, first, limit)
	}
	if err := <-firstErr; !errors.Is(err, ErrDeadline) && !isTransient(err) {
		t.Fatalf("first call = %v, want a deadline or transport failure", err)
	}
	if cli.WriteStats().DroppedFrames == 0 {
		t.Fatal("the stalled frame was not counted as dropped")
	}
}

// waitWriteHeld waits until a write holds the lock of n's writer to addr.
func waitWriteHeld(t *testing.T, n *Node, addr string) {
	t.Helper()
	n.mu.Lock()
	w := n.peers[addr].w
	n.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for w.mu.TryLock() {
		w.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("no write took the writer's lock")
		}
		time.Sleep(time.Millisecond)
	}
}
