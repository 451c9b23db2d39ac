package live

import (
	"errors"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
)

// ErrDeadline is returned when a call (or one attempt of it) exceeds its
// deadline. It matches errors.Is against os.ErrDeadlineExceeded-style
// checks only via itself; callers should test errors.Is(err, ErrDeadline).
var ErrDeadline = errors.New("live: deadline exceeded")

// errConnFailed tags transport-level failures (dial errors, dead or
// poisoned connections, failed writes). A call that failed with it may
// or may not have executed on the server; its retry carries the same
// session stamp, so the server runs it at most once.
var errConnFailed = errors.New("live: connection failed")

// isTransient reports whether err is a transport-level failure that a
// retry on a (possibly fresh) connection could cure. Application errors
// — the dm sentinels and AppError statuses — are never transient.
func isTransient(err error) bool {
	return errors.Is(err, errConnFailed) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// consumer is how a call's response body is delivered internally. At
// most one of the two fields is set. fn borrows the body for the
// duration of the callback; the transport recycles the frame afterwards
// (the copying paths). own receives the whole pooled frame (raw) plus
// the body view into it and, by returning nil, takes ownership of raw —
// the transport then never recycles it, and the new owner must (the
// zero-copy lease paths, via Buf.Release). A non-nil return from own
// declines ownership and the transport recycles the frame as usual.
type consumer struct {
	fn  func(resp []byte) error
	own func(raw, body []byte) error
}

// CallConsumeWithin is CallConsume bounded by timeout: the whole call —
// the wait for a session slot and every attempt — must finish within it.
// 0 uses NodeConfig.CallTimeout; negative disables the bound. Each
// attempt is also capped by NodeConfig.AttemptTimeout, so a stalled
// server cannot absorb the whole budget, and transient failures are
// retried with exponential backoff over the node's reconnect path.
// consume runs at most once, on the successful attempt.
func (n *Node) CallConsumeWithin(addr string, m rpc.Method, hdr, payload []byte, timeout time.Duration, consume func(resp []byte) error) error {
	return n.callConsumer(addr, m, hdr, payload, consumer{fn: consume}, timeout)
}

// callConsumer is the consumer-typed core of CallConsumeWithin; the lease
// paths reach it directly with an owning consumer. Every attempt carries
// the stamp of the one session slot the call holds. Every synchronous
// call's latency (retries included) lands in the node's histogram here.
func (n *Node) callConsumer(addr string, m rpc.Method, hdr, payload []byte, cons consumer, timeout time.Duration) error {
	start := time.Now()
	deadline := n.overallDeadline(timeout)
	sess := n.sess.Load()
	sl, err := sess.acquire(deadline)
	if err != nil {
		n.ops.calls.Add(1)
		n.ops.fail(err)
	} else {
		attempt := func() error {
			return n.attempt(addr, m, hdr, payload, cons, deadline, sl)
		}
		err = n.withRetries(deadline, attempt, attempt)
		sess.release(sl)
	}
	n.lat.Record(time.Since(start).Nanoseconds())
	return err
}

// overallDeadline resolves a call's timeout into the deadline spanning
// every attempt of it (zero = unbounded).
func (n *Node) overallDeadline(timeout time.Duration) time.Time {
	if timeout == 0 {
		timeout = n.cfg.CallTimeout
	}
	if timeout > 0 {
		return time.Now().Add(timeout)
	}
	return time.Time{}
}

// attemptDeadline caps one attempt at the sooner of the overall deadline
// and the per-attempt timeout, so a stalled server cannot absorb the
// whole retry budget.
func (n *Node) attemptDeadline(deadline time.Time) time.Time {
	if n.cfg.AttemptTimeout > 0 {
		ad := time.Now().Add(n.cfg.AttemptTimeout)
		if deadline.IsZero() || ad.Before(deadline) {
			return ad
		}
	}
	return deadline
}

// opStats counts call outcomes across the node's shared retry engine,
// one increment site for every public op (sync and async). Snapshotted
// by Client.Stats.
type opStats struct {
	calls         atomic.Int64
	retries       atomic.Int64
	failures      atomic.Int64
	timeouts      atomic.Int64
	transportErrs atomic.Int64
}

// fail counts a call that the transient error err ended.
func (o *opStats) fail(err error) {
	o.classify(err)
	o.failures.Add(1)
}

// classify splits one failed attempt's transient error by cause —
// deadline expiry vs transport (dial/conn/write) failure — so operators
// can tell a slow-but-alive server from a dead or unreachable one
// without parsing error strings. Non-transient (application) errors
// never reach it; they surface to the caller uncounted.
func (o *opStats) classify(err error) {
	switch {
	case errors.Is(err, ErrDeadline) || errors.Is(err, os.ErrDeadlineExceeded):
		o.timeouts.Add(1)
	case errors.Is(err, errConnFailed):
		o.transportErrs.Add(1)
	}
}

// snapshot reads the counters into the exported Stats form (the
// heartbeat counter lives on the Client and is filled by the caller).
func (o *opStats) snapshot() Stats {
	return Stats{
		Calls:           o.calls.Load(),
		Retries:         o.retries.Load(),
		Failures:        o.failures.Load(),
		Timeouts:        o.timeouts.Load(),
		TransportErrors: o.transportErrs.Load(),
	}
}

// withRetries is the shared retry engine behind the synchronous calls and
// the pool's fan-out futures: it runs first once, then — while the error
// is transient, the attempt budget unspent, and the deadline unmet — runs
// again after a jittered exponential backoff. The first/again split lets
// an async wait resume an attempt already in flight (await only) and fall
// back to full re-sends.
func (n *Node) withRetries(deadline time.Time, first, again func() error) error {
	n.ops.calls.Add(1)
	backoff := n.cfg.RetryBackoff
	f := first
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			n.ops.retries.Add(1)
		}
		err := f()
		if err == nil {
			return nil
		}
		if !isTransient(err) {
			return err // an application answer, not a failure of the call
		}
		f = again
		if attempt >= n.cfg.MaxRetries {
			n.ops.fail(err)
			return err
		}
		n.ops.classify(err)
		// Full jitter on the exponential backoff so synchronized clients
		// don't stampede a recovering server.
		d := time.Duration(rand.Int64N(int64(backoff)) + int64(backoff)/2)
		if backoff *= 2; backoff > n.cfg.RetryBackoffMax {
			backoff = n.cfg.RetryBackoffMax
		}
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				n.ops.failures.Add(1)
				return err
			}
			if d >= rem {
				d = rem / 2 // leave budget for the retry itself
			}
		}
		time.Sleep(d)
	}
}

// attempt performs one request/response exchange on slot sl, bounded by
// the sooner of the overall deadline and the per-attempt timeout.
func (n *Node) attempt(addr string, m rpc.Method, hdr, payload []byte, cons consumer, deadline time.Time, sl *callerSlot) error {
	ad := n.attemptDeadline(deadline)
	c, err := n.peer(addr, ad)
	if err != nil {
		return err
	}
	return c.call(m, hdr, payload, cons, ad, sl)
}
