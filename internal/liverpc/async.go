package liverpc

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dmwire"
	"repro/internal/live"
)

// Asynchronous service calls: CallAsync puts the whole request on the
// wire immediately and returns a future, so one endpoint can pipeline
// several calls over its multiplexed connection — the stage-then-call
// sequence of a chain hop overlaps with the previous request's round
// trip, and the transport's coalescing writer turns the burst into few
// vectored writes.

// PendingCall is one in-flight asynchronous service call. Wait must be
// called exactly once; it is not safe for concurrent use.
type PendingCall struct {
	p   *live.Pending
	err error
}

// Wait blocks for the call's result list, with the same retry/dedup and
// copy semantics as the synchronous CallOpts.
func (pc *PendingCall) Wait() ([]Payload, error) {
	if pc.err != nil {
		return nil, pc.err
	}
	var out []Payload
	err := pc.p.Wait(func(resp []byte) error {
		renv, err := dmwire.UnmarshalReturnEnvelope(resp)
		if err != nil {
			return err
		}
		// The response buffer is pooled and recycled after consume
		// returns, so inline results must be copied out.
		out, err = payloadsFromWire(renv.Args, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CallAsync starts method at addr with args and default options,
// returning a future for the result. Inline arg bytes must stay valid
// and unmodified until Wait returns (they are re-sent on retries).
func (c *Caller) CallAsync(addr, method string, args ...Payload) *PendingCall {
	return c.CallAsyncOpts(addr, method, CallOpts{}, args...)
}

// CallAsyncOpts is CallAsync with explicit options (see CallOpts).
func (c *Caller) CallAsyncOpts(addr, method string, opts CallOpts, args ...Payload) *PendingCall {
	env := dmwire.CallEnvelope{
		Method:  method,
		TraceID: rand.Uint64(),
		Args:    payloadsToWire(args),
	}
	return c.issueAsync(addr, env, opts)
}

// issueAsync ships one envelope and returns the future; the async
// counterpart of issue.
func (c *Caller) issueAsync(addr string, env dmwire.CallEnvelope, opts CallOpts) *PendingCall {
	lopts := c.prepare(&env, opts)
	return &PendingCall{p: c.node.CallAsync(addr, MethodCall, env.MarshalHdr(), env.Bulk(), lopts)}
}

// CallAsync issues a nested asynchronous call from a handler, with the
// same trace/hop/deadline propagation as Ctx.Call. A handler can fan a
// request out to several downstream services and collect the futures.
func (c *Ctx) CallAsync(addr, method string, args ...Payload) *PendingCall {
	return c.CallAsyncOpts(addr, method, CallOpts{}, args...)
}

// CallAsyncOpts is Ctx.CallAsync with explicit options; opts.Timeout is
// still capped by the propagated remaining budget. An already-exhausted
// budget yields a future whose Wait fails with live.ErrDeadline without
// touching the wire.
func (c *Ctx) CallAsyncOpts(addr, method string, opts CallOpts, args ...Payload) *PendingCall {
	if !c.Deadline.IsZero() {
		rem := time.Until(c.Deadline)
		if rem <= 0 {
			return &PendingCall{err: fmt.Errorf("liverpc: %s: %w", method, live.ErrDeadline)}
		}
		if opts.Timeout <= 0 || rem < opts.Timeout {
			opts.Timeout = rem
		}
	}
	env := dmwire.CallEnvelope{
		Method:  method,
		TraceID: c.TraceID,
		Hop:     c.Hop + 1,
		Args:    payloadsToWire(args),
	}
	return c.Svc.caller.issueAsync(addr, env, opts)
}
