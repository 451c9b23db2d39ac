package live

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// errWriterClosed reports a frame submitted to a writer already in
// graceful teardown; it wraps errConnFailed so retry logic treats it like
// any other dead-connection error.
var errWriterClosed = fmt.Errorf("%w: writer closed", errConnFailed)

// Per-connection coalescing writer (DESIGN.md §D10). The live path used
// to issue one writev syscall per frame under a per-connection mutex; at
// small-op rates the syscall, not the bytes, dominates. Instead, every
// connection now owns one batchWriter: callers enqueue fully framed,
// pooled buffers into a bounded submission queue drained by a single
// flusher goroutine that writes *everything currently queued* as one
// vectored write — group commit. The flusher never waits for more work
// before flushing, so an idle connection pays no added latency; batching
// emerges only under load, while the flusher is inside the previous
// writev and new frames pile up behind it.
//
// Frames above the coalesce cutoff skip the queue entirely and take the
// direct path: a synchronous vectored write under the same socket lock,
// preserving the zero-copy property for bulk bodies (copying them into a
// queue buffer would cost more than the syscall it saves).

// DefaultCoalesceLimit is the default cutoff (total frame bytes) below
// which frames are copied into the coalescing queue; larger frames take
// the direct zero-copy path.
const DefaultCoalesceLimit = 16 << 10

// DefaultCoalesceBatchBytes is the default cap on one coalesced vectored
// write; the queue bound (backpressure point) is four times this.
const DefaultCoalesceBatchBytes = 256 << 10

// DefaultCoalesceSpin is the default cap on the adaptive spin-then-flush
// window (NodeConfig.CoalesceSpin): long enough to gather a back-to-back
// burst, short enough to be invisible next to a network round trip.
const DefaultCoalesceSpin = 20 * time.Microsecond

// maxGapSample clamps one inter-enqueue gap sample fed to the EWMA, so a
// single long idle period cannot poison the estimate for the next burst.
const maxGapSample = time.Millisecond

// writeStats aggregates wire-write counters across one endpoint's
// connections; all its batchWriters share one instance.
type writeStats struct {
	frames  atomic.Uint64 // frames shipped (inline + coalesced + direct)
	batches atomic.Uint64 // vectored flushes of coalescing queues
	inline  atomic.Uint64 // frames written inline by an idle-path submitter
	direct  atomic.Uint64 // frames that took the direct zero-copy path
	bytes   atomic.Uint64 // frame bytes shipped
	dropped atomic.Uint64 // frames dropped undelivered by a dying writer
	spins   atomic.Uint64 // flushes whose adaptive spin gathered extra frames
	qframes atomic.Int64  // gauge: frames sitting in submission queues
	qbytes  atomic.Int64  // gauge: bytes sitting in submission queues
}

// WriteStats is a snapshot of an endpoint's wire-write counters, for
// monitoring (dmserverd -stats) and the batching benchmarks.
// CoalescedFrames (= Frames - InlineFrames - DirectFrames) rode the
// submission queues and went out in Batches vectored writes;
// GroupCommitFactor is their ratio — average frames per flush.
// QueueFrames/QueueBytes are point-in-time gauges of what is queued but
// not yet flushed (the batchwriter's backpressure depth). SpinBatches
// counts flushes whose adaptive spin window actually gathered more
// frames before committing.
type WriteStats struct {
	Frames        uint64
	Batches       uint64
	InlineFrames  uint64
	DirectFrames  uint64
	Bytes         uint64
	DroppedFrames uint64
	SpinBatches   uint64

	CoalescedFrames   uint64
	GroupCommitFactor float64

	QueueFrames int64
	QueueBytes  int64
}

// batchWriterConfig sizes one connection's writer; derived from
// NodeConfig by batchConfig().
type batchWriterConfig struct {
	limit        int           // coalesce cutoff in frame bytes; negative disables
	batchBytes   int           // max bytes drained into one vectored write
	queueBytes   int           // submission-queue bound (enqueue backpressure)
	writeTimeout time.Duration // deadline for writes with no frame deadline
	spin         time.Duration // adaptive spin-then-flush cap; <= 0 disables
}

// batchItem is one queued frame: a pooled buffer the writer owns, plus
// the latest instant its write may complete (zero = unbounded).
type batchItem struct {
	buf      []byte
	deadline time.Time
}

// batchWriter owns the write side of one connection.
type batchWriter struct {
	c     net.Conn
	cfg   batchWriterConfig
	stats *writeStats
	// onFail is invoked once with the first write error so the owner can
	// poison its connection state (client: conn.fail; server: close the
	// conn so the read loop exits). It may call kill — that is idempotent
	// and never invoked under the writer's locks.
	onFail   func(error)
	failOnce sync.Once

	// wmu serializes socket writes between the flusher and the direct
	// path so frames never interleave mid-frame. Relative order between
	// queued and direct frames is unspecified — harmless, every frame is
	// an independent multiplexed request or response.
	wmu sync.Mutex
	// segs collects the segments of the next vectored write, and vec is
	// the write in progress, both under wmu. WriteTo consumes vec, so each
	// write rebuilds it from segs, whose backing array the writer keeps;
	// living in the writer, neither escapes per write.
	segs [][]byte
	vec  net.Buffers

	// spinOK gates the adaptive spin at construction time: spinning only
	// pays when producers can run on another processor while the flusher
	// lingers. With GOMAXPROCS=1 the spin window just steals the only
	// processor from the very producers it is waiting for (measured ~30%
	// small-op throughput loss), so it is disabled outright there.
	spinOK bool

	mu       sync.Mutex
	nonEmpty sync.Cond // flusher waits: queue non-empty, dying, or closing
	space    sync.Cond // enqueuers wait: queue has room, or writer dying
	queue    []batchItem
	qbytes   int
	dead     error
	closing  bool
	done     chan struct{} // closed when the flusher exits

	// Adaptive coalescing state (under mu): gapEWMA estimates the
	// inter-enqueue gap; the flusher spins only while it indicates a
	// burst in progress (gap <= cfg.spin).
	gapEWMA time.Duration
	lastEnq time.Time
}

// newBatchWriter starts the flusher goroutine for c. The goroutine exits
// after kill (drop queued frames) or close (flush queued frames).
func newBatchWriter(c net.Conn, cfg batchWriterConfig, stats *writeStats, onFail func(error)) *batchWriter {
	bw := &batchWriter{c: c, cfg: cfg, stats: stats, onFail: onFail, done: make(chan struct{})}
	bw.spinOK = cfg.spin > 0 && runtime.GOMAXPROCS(0) > 1
	bw.nonEmpty.L = &bw.mu
	bw.space.L = &bw.mu
	go bw.flushLoop()
	return bw
}

// coalesce reports whether a frame totalling n bytes rides the queue
// (copied, group-committed) or the direct zero-copy path.
func (bw *batchWriter) coalesce(n int) bool {
	return bw.cfg.limit >= 0 && n <= bw.cfg.limit
}

// enqueue submits one fully framed buffer. Ownership of buf transfers to
// the writer on success and failure alike (it is recycled either way), so
// buf must be pooled (or pool-safe) and must not be touched after the
// call. Blocks while the queue is over its bound — the frame-level
// backpressure that used to come from the blocking per-frame write.
// deadline, when nonzero, bounds this frame's write; an expired deadline
// fails the batch write and poisons the connection, exactly like the old
// per-frame SetWriteDeadline.
func (bw *batchWriter) enqueue(buf []byte, deadline time.Time) error {
	bw.mu.Lock()
	for bw.dead == nil && !bw.closing && bw.qbytes > 0 && bw.qbytes+len(buf) > bw.cfg.queueBytes {
		bw.space.Wait()
	}
	if bw.dead != nil || bw.closing {
		err := bw.dead
		bw.mu.Unlock()
		putBuf(buf)
		bw.stats.dropped.Add(1)
		if err == nil {
			err = errWriterClosed
		}
		return err
	}
	if bw.spinOK { // the EWMA only feeds the spin decision
		now := time.Now()
		if !bw.lastEnq.IsZero() {
			gap := now.Sub(bw.lastEnq)
			if gap > maxGapSample {
				gap = maxGapSample
			}
			if bw.gapEWMA == 0 {
				bw.gapEWMA = gap
			} else {
				bw.gapEWMA = (7*bw.gapEWMA + gap) / 8
			}
		}
		bw.lastEnq = now
	}
	bw.queue = append(bw.queue, batchItem{buf: buf, deadline: deadline})
	bw.qbytes += len(buf)
	bw.stats.qframes.Add(1)
	bw.stats.qbytes.Add(int64(len(buf)))
	bw.nonEmpty.Signal()
	bw.mu.Unlock()
	return nil
}

// enqueueInline is enqueue for latency-sensitive submitters: when nothing
// is queued and the socket is uncontended, the calling goroutine writes
// the frame itself — an idle connection skips the flusher handoff (two
// scheduler wakeups) entirely. Under load the TryLock fails or the queue
// is non-empty and the frame falls back to the queue, so group commit
// still emerges exactly when it pays. The reordering this allows between
// an inline frame and a concurrently flushed batch is harmless: frames
// are independent, matched by request id, not by position in the stream.
// Ownership of buf transfers as with enqueue.
func (bw *batchWriter) enqueueInline(buf []byte, deadline time.Time) error {
	bw.mu.Lock()
	if bw.dead == nil && !bw.closing && len(bw.queue) == 0 && bw.wmu.TryLock() {
		bw.mu.Unlock()
		if deadline.IsZero() && bw.cfg.writeTimeout > 0 {
			deadline = time.Now().Add(bw.cfg.writeTimeout)
		}
		err := bw.c.SetWriteDeadline(deadline)
		if err == nil {
			_, err = bw.c.Write(buf)
		}
		bw.wmu.Unlock()
		nbytes := len(buf)
		putBuf(buf)
		if err != nil {
			bw.stats.dropped.Add(1)
			bw.fail(err)
			return err
		}
		bw.stats.frames.Add(1)
		bw.stats.inline.Add(1)
		bw.stats.bytes.Add(uint64(nbytes))
		return nil
	}
	bw.mu.Unlock()
	return bw.enqueue(buf, deadline)
}

// writeDirect ships one frame, head then body, synchronously and
// bypassing the queue — the zero-copy path for bodies above the coalesce
// cutoff. The caller keeps ownership of both (they are fully written on
// return).
func (bw *batchWriter) writeDirect(head, body []byte, deadline time.Time) error {
	bw.mu.Lock()
	err := bw.dead
	closing := bw.closing
	bw.mu.Unlock()
	if err != nil {
		return err
	}
	if closing {
		return errWriterClosed
	}
	nbytes := len(head) + len(body)
	if deadline.IsZero() && bw.cfg.writeTimeout > 0 {
		deadline = time.Now().Add(bw.cfg.writeTimeout)
	}
	bw.wmu.Lock()
	// A failed deadline arm means the socket is already unusable; treat
	// it exactly like a failed write (a partial frame desyncs the stream).
	err = bw.c.SetWriteDeadline(deadline)
	if err == nil {
		bw.segs = append(bw.segs, head)
		if len(body) > 0 {
			bw.segs = append(bw.segs, body)
		}
		err = bw.writeSegs()
	}
	bw.wmu.Unlock()
	if err != nil {
		bw.stats.dropped.Add(1)
		bw.fail(err)
		return err
	}
	bw.stats.frames.Add(1)
	bw.stats.direct.Add(1)
	bw.stats.bytes.Add(uint64(nbytes))
	return nil
}

// flushLoop is the single writer goroutine: it drains whatever is queued
// the moment anything is, into one vectored write capped at batchBytes.
func (bw *batchWriter) flushLoop() {
	defer close(bw.done)
	var batch []batchItem
	for {
		bw.mu.Lock()
		for len(bw.queue) == 0 && bw.dead == nil && !bw.closing {
			bw.nonEmpty.Wait()
		}
		if bw.dead != nil {
			bw.releaseLocked()
			bw.mu.Unlock()
			return
		}
		if len(bw.queue) == 0 { // closing with a drained queue: done
			bw.mu.Unlock()
			return
		}
		// Adaptive spin-then-flush: when the submission rate is high
		// (EWMA gap within the spin cap) and the queue is not yet a full
		// batch, linger briefly — yielding the processor so producers
		// run — to let the burst in progress coalesce into this flush.
		// Low-rate and idle connections never reach here with a small
		// EWMA, so they keep the flush-immediately behaviour.
		if bw.spinOK && !bw.closing && bw.qbytes < bw.cfg.batchBytes {
			if ewma := bw.gapEWMA; ewma > 0 && ewma <= bw.cfg.spin {
				window := 8 * ewma
				if window > bw.cfg.spin {
					window = bw.cfg.spin
				}
				startFrames := len(bw.queue)
				limit := time.Now().Add(window)
				for bw.dead == nil && !bw.closing && bw.qbytes < bw.cfg.batchBytes && time.Now().Before(limit) {
					bw.mu.Unlock()
					runtime.Gosched()
					bw.mu.Lock()
				}
				if len(bw.queue) > startFrames {
					bw.stats.spins.Add(1)
				}
				if bw.dead != nil {
					bw.releaseLocked()
					bw.mu.Unlock()
					return
				}
			}
		}
		// Group commit: take everything queued right now, up to the
		// batch cap; the remainder seeds the next flush. At least one
		// frame always moves, so an oversized frame cannot wedge.
		n, nbytes := 0, 0
		for n < len(bw.queue) && (n == 0 || nbytes+len(bw.queue[n].buf) <= bw.cfg.batchBytes) {
			nbytes += len(bw.queue[n].buf)
			n++
		}
		batch = append(batch[:0], bw.queue[:n]...)
		rest := copy(bw.queue, bw.queue[n:])
		for i := rest; i < len(bw.queue); i++ {
			bw.queue[i] = batchItem{}
		}
		bw.queue = bw.queue[:rest]
		bw.qbytes -= nbytes
		bw.stats.qframes.Add(int64(-n))
		bw.stats.qbytes.Add(int64(-nbytes))
		bw.space.Broadcast()
		bw.mu.Unlock()

		// The batch deadline is the earliest frame deadline (a frame that
		// had to be out by T still has to be), else the write timeout.
		var deadline time.Time
		for _, it := range batch {
			if !it.deadline.IsZero() && (deadline.IsZero() || it.deadline.Before(deadline)) {
				deadline = it.deadline
			}
		}
		if deadline.IsZero() && bw.cfg.writeTimeout > 0 {
			deadline = time.Now().Add(bw.cfg.writeTimeout)
		}
		bw.wmu.Lock()
		err := bw.c.SetWriteDeadline(deadline)
		if err == nil {
			for _, it := range batch {
				bw.segs = append(bw.segs, it.buf)
			}
			err = bw.writeSegs()
		}
		bw.wmu.Unlock()
		for _, it := range batch {
			putBuf(it.buf)
		}
		if err != nil {
			bw.stats.dropped.Add(uint64(len(batch)))
			bw.fail(err)
			continue // the next pass sees dead, drains, and exits
		}
		bw.stats.frames.Add(uint64(len(batch)))
		bw.stats.batches.Add(1)
		bw.stats.bytes.Add(uint64(nbytes))
	}
}

// writeSegs writes segs as one vectored write and empties it; the caller
// holds wmu.
func (bw *batchWriter) writeSegs() error {
	bw.vec = bw.segs
	_, err := bw.vec.WriteTo(bw.c)
	clear(bw.segs)
	bw.segs = bw.segs[:0]
	return err
}

// releaseLocked recycles every queued frame; the caller holds bw.mu.
func (bw *batchWriter) releaseLocked() {
	for _, it := range bw.queue {
		putBuf(it.buf)
	}
	bw.stats.dropped.Add(uint64(len(bw.queue)))
	bw.stats.qframes.Add(int64(-len(bw.queue)))
	bw.stats.qbytes.Add(int64(-bw.qbytes))
	bw.queue = nil
	bw.qbytes = 0
	bw.space.Broadcast()
}

// kill poisons the writer: queued frames are dropped and recycled,
// blocked enqueuers fail, and the flusher exits. Idempotent; called by
// the connection owner when the connection dies for any reason.
func (bw *batchWriter) kill(err error) {
	bw.mu.Lock()
	if bw.dead == nil {
		bw.dead = err
	}
	bw.releaseLocked()
	bw.nonEmpty.Signal()
	bw.mu.Unlock()
}

// fail is kill plus the one-time owner notification, for write errors the
// writer itself detects.
func (bw *batchWriter) fail(err error) {
	bw.kill(err)
	if bw.onFail != nil {
		bw.failOnce.Do(func() { bw.onFail(err) })
	}
}

// close flushes whatever is queued, stops the flusher, and waits for it
// to exit; the serving side calls it at connection teardown so responses
// already accepted still go out. Bounded by the write timeout: a peer
// that stops reading fails the final flush rather than wedging teardown.
func (bw *batchWriter) close() {
	bw.mu.Lock()
	bw.closing = true
	bw.nonEmpty.Signal()
	bw.space.Broadcast()
	bw.mu.Unlock()
	<-bw.done
}
