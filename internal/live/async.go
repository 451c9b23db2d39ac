package live

import (
	"fmt"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/rpc"
)

// Asynchronous calls: CallAsync ships the request immediately (through
// the connection's coalescing writer, so a burst of futures issued
// back-to-back group-commits into few vectored writes) and returns a
// future; Wait collects the response later, with the same deadline,
// retry, and dedup semantics as the synchronous path. Pipelining several
// calls per connection is what turns the batch writer's group commit
// from a possibility into a certainty — one caller, many frames in
// flight.

// Pending is one in-flight asynchronous call. It is not safe for
// concurrent use, and Wait must be called exactly once: an abandoned
// Pending leaks its pending-table entry until the connection dies.
type Pending struct {
	n        *Node
	addr     string
	m        rpc.Method
	hdr      []byte
	payload  []byte
	opts     CallOpts
	deadline time.Time // overall, spans retries
	attDL    time.Time // first attempt's deadline
	start    time.Time // submission instant, for the latency histogram
	gate     *creditGate
	c        *conn
	id       uint64
	ch       chan response
	err      error // submission failure, surfaced (and maybe retried) in Wait
}

// CallAsync starts method m at addr and returns a future for the
// response. The request is handed to the wire immediately; errors —
// including submission failures — surface from Wait, which also runs the
// retry loop, so hdr and payload must stay valid and unmodified until
// Wait returns. opts follows CallConsumeOpts.
//
// Submission first acquires one session credit for addr (credit.go):
// past the server-advertised window of in-flight async calls, CallAsync
// blocks until a completion frees a credit, or sheds with ErrCredits at
// the attempt deadline — bounded queueing instead of an unbounded
// pending map when the server stalls. The credit is returned when Wait
// completes.
func (n *Node) CallAsync(addr string, m rpc.Method, hdr, payload []byte, opts CallOpts) *Pending {
	p := &Pending{n: n, addr: addr, m: m, hdr: hdr, payload: payload, opts: opts, start: time.Now()}
	p.deadline = n.overallDeadline(opts)
	p.attDL = n.attemptDeadline(p.deadline)
	if g := n.gateFor(addr); g != nil {
		waited, err := g.acquire(p.attDL)
		if waited {
			n.ops.creditWaits.Add(1)
		}
		if err != nil {
			n.ops.creditSheds.Add(1)
			p.err = err
			return p
		}
		p.gate = g
	}
	c, err := n.peer(addr, p.attDL)
	if err != nil {
		p.err = err
		return p
	}
	p.c = c
	p.id, p.ch, p.err = c.send(m, hdr, payload, p.attDL, opts.Token, false)
	return p
}

// Wait blocks for the response and hands the pooled body to consume
// (which must not retain it), exactly like CallConsumeOpts. A transient
// failure of the in-flight attempt — including a submission error from
// CallAsync — is retried with full re-sends when the call is idempotent
// or tokened.
func (p *Pending) Wait(consume func(resp []byte) error) error {
	return p.wait(consumer{fn: consume})
}

// wait is Wait's consumer-typed core; it also releases the session
// credit held since CallAsync and records the call's submission-to-
// completion latency.
func (p *Pending) wait(cons consumer) error {
	first := func() error {
		if p.err != nil {
			return p.err
		}
		return p.c.await(p.m, p.id, p.ch, p.attDL, cons)
	}
	again := func() error {
		return p.n.attempt(p.addr, p.m, p.hdr, p.payload, cons, p.deadline, p.opts.Token)
	}
	err := p.n.withRetries(p.opts, p.deadline, first, again)
	if p.gate != nil {
		p.gate.release()
		p.gate = nil
	}
	p.n.lat.Record(time.Since(p.start).Nanoseconds())
	return err
}

// AsyncOp is one in-flight asynchronous Client operation; Wait must be
// called exactly once.
type AsyncOp struct {
	p       *Pending
	err     error
	consume func(resp []byte) error
}

// Wait blocks for the operation's result.
func (op *AsyncOp) Wait() error {
	if op.err != nil {
		return op.err
	}
	return op.p.Wait(op.consume)
}

// WriteAsync starts an rwrite of src at addr and returns a future. src
// rides the socket with no marshal copy (or is coalesced when small) and
// must stay valid and unmodified until Wait returns — it is re-sent if
// the call retries. Issue several and Wait in order to pipeline writes
// over one connection.
func (cl *Client) WriteAsync(addr dm.RemoteAddr, src []byte) *AsyncOp {
	pid, err := cl.session()
	if err != nil {
		return &AsyncOp{err: err}
	}
	if err := checkWireRange("write", 0, int64(len(src))); err != nil {
		return &AsyncOp{err: err}
	}
	return &AsyncOp{p: cl.node.CallAsync(cl.addr, dmwire.MWrite,
		dmwire.WriteReq{PID: pid, Addr: addr}.MarshalHdr(), src, idemOpts())}
}

// ReadRefAsync starts a by-ref read into dst and returns a future; dst is
// filled when Wait returns nil and must not be read before that.
func (cl *Client) ReadRefAsync(ref dm.Ref, off int64, dst []byte) *AsyncOp {
	if _, err := cl.session(); err != nil {
		return &AsyncOp{err: err}
	}
	if err := checkWireRange("readref", off, int64(len(dst))); err != nil {
		return &AsyncOp{err: err}
	}
	return &AsyncOp{
		p: cl.node.CallAsync(cl.addr, dmwire.MReadRef,
			dmwire.ReadRefReq{Key: ref.Key, Off: uint32(off), Size: uint32(len(dst))}.Marshal(), nil, idemOpts()),
		consume: func(resp []byte) error {
			if len(resp) != len(dst) {
				return fmt.Errorf("live: readref returned %d bytes, want %d", len(resp), len(dst))
			}
			copy(dst, resp)
			return nil
		},
	}
}

// AsyncRef is an in-flight StageRefAsync; Wait must be called exactly
// once and yields the staged ref.
type AsyncRef struct {
	op   AsyncOp
	size int64
	key  uint64
}

// StageRefAsync starts staging data into fresh pages and returns a
// future for the ref. data must stay valid and unmodified until Wait
// returns (it is re-sent if the tokened call retries).
func (cl *Client) StageRefAsync(data []byte) *AsyncRef {
	pid, err := cl.session()
	if err != nil {
		return &AsyncRef{op: AsyncOp{err: err}}
	}
	ar := &AsyncRef{size: int64(len(data))}
	ar.op = AsyncOp{
		p: cl.node.CallAsync(cl.addr, dmwire.MStage, dmwire.StageReq{PID: pid}.MarshalHdr(), data, cl.mutOpts()),
		consume: func(resp []byte) error {
			r, err := dmwire.UnmarshalRefKeyResp(resp)
			if err != nil {
				return err
			}
			ar.key = r.Key
			return nil
		},
	}
	return ar
}

// StageRefAtAsync starts a caller-keyed stage (MStageAt — the
// replica-placement primitive) and returns a future for the ref. A
// non-empty replicas list makes the server record the key's epoch-1
// directory entry together with the ref (the §D16 handoff); nil records
// nothing. data must stay valid and unmodified until Wait returns.
func (cl *Client) StageRefAtAsync(key uint64, replicas []uint32, data []byte) *AsyncRef {
	pid, err := cl.session()
	if err != nil {
		return &AsyncRef{op: AsyncOp{err: err}}
	}
	ar := &AsyncRef{size: int64(len(data)), key: key}
	ar.op = AsyncOp{
		p: cl.node.CallAsync(cl.addr, dmwire.MStageAt,
			dmwire.StageAtReq{PID: pid, Key: key, Replicas: replicas}.MarshalHdr(), data, cl.mutOpts()),
		consume: func(resp []byte) error {
			_, err := dmwire.UnmarshalRefKeyResp(resp)
			return err
		},
	}
	return ar
}

// FreeRefAsync starts dropping the ref's own page hold and returns a
// future; the free is tokened (at-most-once across retries) exactly
// like the synchronous FreeRef.
func (cl *Client) FreeRefAsync(ref dm.Ref) *AsyncOp {
	if _, err := cl.session(); err != nil {
		return &AsyncOp{err: err}
	}
	return &AsyncOp{p: cl.node.CallAsync(cl.addr, dmwire.MFreeRef,
		dmwire.FreeRefReq{Key: ref.Key}.Marshal(), nil, cl.mutOpts())}
}

// Wait blocks for the staging result.
func (ar *AsyncRef) Wait() (dm.Ref, error) {
	if err := ar.op.Wait(); err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: ar.key, Size: ar.size}, nil
}
