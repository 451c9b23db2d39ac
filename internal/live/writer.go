package live

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Per-connection writer (DESIGN.md §D10). The goroutine that produces a
// frame writes it: write takes the connection's write lock, arms the
// write deadline and issues one vectored write of head + body, as eRPC's
// endpoint-owning thread transmits from its own endpoint. Concurrent
// producers on one connection take turns at the lock.

// writeStats aggregates wire-write counters across one endpoint's
// connections; all its writers share one instance.
type writeStats struct {
	frames  atomic.Uint64 // frames written
	bytes   atomic.Uint64 // frame bytes written
	dropped atomic.Uint64 // frames not written: a failed write or a dead writer
}

// WriteStats is a snapshot of an endpoint's wire-write counters, for
// monitoring (dmserverd -stats) and the benchmark harness.
type WriteStats struct {
	Frames        uint64
	Bytes         uint64
	DroppedFrames uint64

	// Batches and CoalescedFrames always equal Frames: every frame is
	// its own write. They remain only because the benchmark harness still
	// reads them to derive live.node.group_commit_factor (now 1.0); both
	// go with that metric.
	Batches         uint64
	CoalescedFrames uint64
}

// connWriter owns the write side of one connection.
type connWriter struct {
	c     net.Conn
	stats *writeStats
	// onFail is invoked once with the first write error so the owner can
	// poison its connection state (client: conn.fail; server: close the
	// conn so the read loop exits). It may call kill, which never takes
	// mu.
	onFail   func(error)
	failOnce sync.Once
	// dead is the error that poisoned the writer; set once, by kill.
	dead atomic.Pointer[error]

	// mu serializes socket writes so frames never interleave mid-frame.
	// Frames from different goroutines go out in lock order — harmless,
	// every frame is an independent multiplexed request or response.
	mu sync.Mutex
	// segs collects the segments of the next vectored write, and vec is
	// the write in progress, both under mu. WriteTo consumes vec, so each
	// write rebuilds it from segs, whose backing array the writer keeps;
	// living in the writer, neither escapes per write.
	segs [][]byte
	vec  net.Buffers
}

// write ships one frame, head then body, as one vectored write, bounded
// by deadline (zero: writeTimeout from now). The caller keeps ownership
// of both; they are fully written, or the writer is dead, on return. A
// caller waiting for the lock behind a stalled write returns when that
// write's deadline fails the connection.
func (w *connWriter) write(head, body []byte, deadline time.Time) error {
	w.mu.Lock()
	if p := w.dead.Load(); p != nil {
		w.mu.Unlock()
		w.stats.dropped.Add(1)
		return *p
	}
	if deadline.IsZero() {
		deadline = time.Now().Add(writeTimeout)
	}
	// A failed deadline arm means the socket is already unusable; treat
	// it exactly like a failed write (a partial frame desyncs the stream).
	err := w.c.SetWriteDeadline(deadline)
	if err == nil {
		w.segs = append(w.segs, head)
		if len(body) > 0 {
			w.segs = append(w.segs, body)
		}
		w.vec = w.segs
		_, err = w.vec.WriteTo(w.c)
		clear(w.segs)
		w.segs = w.segs[:0]
	}
	w.mu.Unlock()
	if err != nil {
		w.stats.dropped.Add(1)
		w.fail(err)
		return err
	}
	w.stats.frames.Add(1)
	w.stats.bytes.Add(uint64(len(head) + len(body)))
	return nil
}

// kill poisons the writer: every later write fails with err (the first
// kill's). Idempotent, and never takes mu, so the connection owner can
// kill a writer whose socket a write is blocked on and then close that
// socket.
func (w *connWriter) kill(err error) { w.dead.CompareAndSwap(nil, &err) }

// fail is kill plus the one-time owner notification, for write errors the
// writer itself detects.
func (w *connWriter) fail(err error) {
	w.kill(err)
	if w.onFail != nil {
		w.failOnce.Do(func() { w.onFail(err) })
	}
}
