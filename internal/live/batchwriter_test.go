package live

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// testWriteConn is a net.Conn stub for exercising the batch writer
// without sockets: per-Write delay (so the submission queue builds while
// a flush is in flight), injectable write and SetWriteDeadline errors,
// and byte/call accounting.
type testWriteConn struct {
	mu       sync.Mutex
	delay    time.Duration
	writeErr error // returned by every Write once set
	sdErr    error // returned by every SetWriteDeadline once set
	wrote    int
	writes   int
}

func (c *testWriteConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	delay, werr := c.delay, c.writeErr
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if werr != nil {
		return 0, werr
	}
	c.mu.Lock()
	c.wrote += len(b)
	c.writes++
	c.mu.Unlock()
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
func (c *testWriteConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sdErr
}

func testBatchConfig() batchWriterConfig {
	return batchWriterConfig{limit: 1024, batchBytes: 64 << 10, queueBytes: 256 << 10, writeTimeout: time.Second}
}

// TestBatchWriterCoalesces proves group commit: with the socket slow, a
// burst of enqueued frames drains in far fewer vectored flushes than
// frames, with every byte delivered and close() waiting for the drain.
func TestBatchWriterCoalesces(t *testing.T) {
	var stats writeStats
	tc := &testWriteConn{delay: 5 * time.Millisecond}
	bw := newBatchWriter(tc, testBatchConfig(), &stats, nil)
	const frames, frameLen = 32, 64
	for i := 0; i < frames; i++ {
		if err := bw.enqueue(getBuf(frameLen), time.Time{}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	bw.close()
	if got := stats.frames.Load(); got != frames {
		t.Fatalf("frames flushed = %d, want %d", got, frames)
	}
	if got := stats.bytes.Load(); got != frames*frameLen {
		t.Fatalf("bytes flushed = %d, want %d", got, frames*frameLen)
	}
	if wrote, _ := tc.totals(); wrote != frames*frameLen {
		t.Fatalf("conn saw %d bytes, want %d", wrote, frames*frameLen)
	}
	if dropped := stats.dropped.Load(); dropped != 0 {
		t.Fatalf("%d frames dropped on the happy path", dropped)
	}
	// The first flush takes >=1 frame while the remaining 31 pile up
	// behind the 5 ms write; any group commit at all keeps batches well
	// under frames.
	if b := stats.batches.Load(); b >= frames/2 {
		t.Fatalf("no coalescing: %d batches for %d frames", b, frames)
	}
	if err := bw.enqueue(getBuf(8), time.Time{}); err == nil {
		t.Fatal("enqueue after close succeeded")
	}
}

// TestBatchWriterFailureDrain proves the poison path: a write error
// fires the failure hook exactly once, queued frames are dropped (and
// recycled, not written), and later submissions fail fast.
func TestBatchWriterFailureDrain(t *testing.T) {
	wantErr := errors.New("boom")
	var stats writeStats
	var hookCalls int
	var hookErr error
	tc := &testWriteConn{delay: 5 * time.Millisecond, writeErr: wantErr}
	bw := newBatchWriter(tc, testBatchConfig(), &stats, func(err error) {
		hookCalls++
		hookErr = err
	})
	const frames = 4
	for i := 0; i < frames; i++ {
		if err := bw.enqueue(getBuf(64), time.Time{}); err != nil && !errors.Is(err, wantErr) {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	bw.close() // waits for the flusher, so the failure has happened
	if hookCalls != 1 || !errors.Is(hookErr, wantErr) {
		t.Fatalf("failure hook: %d calls, err %v; want 1 call of %v", hookCalls, hookErr, wantErr)
	}
	if stats.frames.Load() != 0 {
		t.Fatalf("%d frames counted as flushed on a dead conn", stats.frames.Load())
	}
	if stats.dropped.Load() != frames {
		t.Fatalf("dropped = %d, want %d", stats.dropped.Load(), frames)
	}
	if err := bw.enqueue(getBuf(8), time.Time{}); !errors.Is(err, wantErr) {
		t.Fatalf("enqueue after death = %v, want %v", err, wantErr)
	}
	if err := bw.writeDirect([]byte("x"), nil, time.Time{}); !errors.Is(err, wantErr) {
		t.Fatalf("writeDirect after death = %v, want %v", err, wantErr)
	}
}

// TestBatchWriterDeadlineArmFailure is the SetWriteDeadline satellite at
// unit level: a connection whose deadline arm fails is poisoned exactly
// like a failed write, on both the flush and direct paths.
func TestBatchWriterDeadlineArmFailure(t *testing.T) {
	armErr := errors.New("deadline arm failed")
	var stats writeStats
	failed := make(chan error, 1)
	tc := &testWriteConn{sdErr: armErr}
	bw := newBatchWriter(tc, testBatchConfig(), &stats, func(err error) { failed <- err })
	if err := bw.enqueue(getBuf(16), time.Time{}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-failed:
		if !errors.Is(err, armErr) {
			t.Fatalf("poisoned with %v, want %v", err, armErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline-arm failure did not poison the writer")
	}
	if _, calls := tc.totals(); calls != 0 {
		t.Fatal("wrote to the socket after the deadline arm failed")
	}
	bw.close()

	var stats2 writeStats
	bw2 := newBatchWriter(&testWriteConn{sdErr: armErr}, testBatchConfig(), &stats2, nil)
	if err := bw2.writeDirect([]byte("x"), nil, time.Time{}); !errors.Is(err, armErr) {
		t.Fatalf("writeDirect with failing deadline arm = %v, want %v", err, armErr)
	}
	bw2.close()
}

// TestBatchWriterInlineFastPath pins the idle fast path: with the queue
// empty and the socket lock free, enqueueInline writes from the calling
// goroutine (one conn Write, counted as a 1-frame batch); with the
// socket lock held, it falls back to the queue and the flusher delivers.
func TestBatchWriterInlineFastPath(t *testing.T) {
	var stats writeStats
	tc := &testWriteConn{}
	bw := newBatchWriter(tc, testBatchConfig(), &stats, nil)
	if err := bw.enqueueInline(getBuf(32), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if wrote, calls := tc.totals(); wrote != 32 || calls != 1 {
		t.Fatalf("inline path: conn saw %d bytes in %d writes, want 32 in 1", wrote, calls)
	}
	if stats.frames.Load() != 1 || stats.inline.Load() != 1 || stats.batches.Load() != 0 {
		t.Fatalf("inline accounting: frames=%d inline=%d batches=%d, want 1/1/0",
			stats.frames.Load(), stats.inline.Load(), stats.batches.Load())
	}

	// Contended socket: the fallback must queue, not block on wmu.
	bw.wmu.Lock()
	if err := bw.enqueueInline(getBuf(16), time.Time{}); err != nil {
		t.Fatal(err)
	}
	bw.mu.Lock()
	queued := len(bw.queue)
	bw.mu.Unlock()
	if queued != 1 {
		t.Fatalf("contended inline submit queued %d frames, want 1", queued)
	}
	bw.wmu.Unlock()
	bw.close() // drains the queued frame through the flusher
	if got := stats.frames.Load(); got != 2 {
		t.Fatalf("frames after drain = %d, want 2", got)
	}
	if dropped := stats.dropped.Load(); dropped != 0 {
		t.Fatalf("%d frames dropped", dropped)
	}
}

// TestBatchWriterDirectPath checks the zero-copy path's accounting and
// the coalesce predicate, including the negative-limit (disabled) mode.
func TestBatchWriterDirectPath(t *testing.T) {
	var stats writeStats
	cfg := testBatchConfig()
	tc := &testWriteConn{}
	bw := newBatchWriter(tc, cfg, &stats, nil)
	if !bw.coalesce(cfg.limit) || bw.coalesce(cfg.limit+1) {
		t.Fatal("coalesce cutoff off by one")
	}
	body := make([]byte, cfg.limit+1)
	if err := bw.writeDirect(body[:13], body[13:], time.Time{}); err != nil {
		t.Fatal(err)
	}
	bw.close()
	if stats.direct.Load() != 1 || stats.frames.Load() != 1 || stats.batches.Load() != 0 {
		t.Fatalf("direct write accounting: direct=%d frames=%d batches=%d",
			stats.direct.Load(), stats.frames.Load(), stats.batches.Load())
	}
	if stats.bytes.Load() != uint64(len(body)) {
		t.Fatalf("direct bytes = %d, want %d", stats.bytes.Load(), len(body))
	}

	cfg.limit = -1
	bwOff := newBatchWriter(&testWriteConn{}, cfg, &stats, nil)
	if bwOff.coalesce(1) {
		t.Fatal("negative limit must disable coalescing")
	}
	bwOff.close()
}
