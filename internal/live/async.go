package live

import (
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/rpc"
)

// Asynchronous calls, for the pool's fan-outs only: callAsync writes the
// request and returns a future without waiting for the response, so a
// caller can have several calls in flight; wait collects the response
// later, with the same deadline, retry and at-most-once semantics as the
// synchronous path: the future holds one session slot from callAsync
// until wait returns. Every caller waits on each future it starts, so
// the in-flight calls stay bounded by callers × fan-out width.

// pending is one in-flight asynchronous call. It is not safe for
// concurrent use, and wait must be called exactly once: an abandoned
// pending holds its session slot, and its pending-table entry until the
// connection dies. The slot owns the response channel and the attempt
// timer, so a future is one allocation: the struct that embeds it, whose
// hb also backs the request header.
type pending struct {
	n        *Node
	addr     string
	m        rpc.Method
	hdr      []byte
	payload  []byte
	deadline time.Time // overall, spans retries
	attDL    time.Time // first attempt's deadline
	start    time.Time // submission instant, for the latency histogram
	sess     *callerSession
	sl       *callerSlot // nil when no slot was free in time
	c        *conn
	id       uint64
	err      error // submission failure, surfaced (and maybe retried) in wait
	hb       [reqHdrMax]byte
}

// reqHdrMax is the largest request header encoded in place: an
// AdoptRefReq with a full replica list.
const reqHdrMax = 8 + 8 + 1 + 4*dmwire.MaxRefReplicas

// callAsync starts method m at addr on p and returns once the request is
// written; errors — including submission failures — surface from wait,
// which also runs the retry loop, so hdr and payload must stay valid and
// unmodified until wait returns. The call takes the node's default
// deadline.
func (n *Node) callAsync(p *pending, addr string, m rpc.Method, hdr, payload []byte) {
	p.n, p.addr, p.m, p.hdr, p.payload, p.start = n, addr, m, hdr, payload, time.Now()
	p.deadline = n.overallDeadline(0)
	p.sess = n.sess.Load()
	if p.sl, p.err = p.sess.acquire(p.deadline); p.err != nil {
		return
	}
	p.attDL = n.attemptDeadline(p.deadline)
	if p.c, p.err = n.peer(addr, p.attDL); p.err != nil {
		return
	}
	p.id, p.err = p.c.send(m, hdr, payload, p.attDL, p.sl)
}

// wait blocks for the response and hands the pooled body to consume
// (which must not retain it; nil ignores the body), exactly like
// CallConsume. A transient failure of the in-flight attempt —
// including a submission error from callAsync — is retried with full
// re-sends. The call's submission-to-completion latency lands in the
// node's histogram, a call that never got a slot's included.
func (p *pending) wait(consume func(resp []byte) error) error {
	var err error
	if p.sl == nil {
		p.n.ops.calls.Add(1)
		p.n.ops.fail(p.err)
		err = p.err
	} else {
		cons := consumer{fn: consume}
		first := func() error {
			if p.err != nil {
				return p.err
			}
			return p.c.await(p.m, p.id, p.sl, p.attDL, cons)
		}
		again := func() error {
			return p.n.attempt(p.addr, p.m, p.hdr, p.payload, cons, p.deadline, p.sl)
		}
		err = p.n.withRetries(p.deadline, first, again)
		p.sess.release(p.sl)
	}
	p.n.lat.Record(time.Since(p.start).Nanoseconds())
	return err
}

// AsyncOp is one in-flight asynchronous Client operation; Wait must be
// called exactly once.
type AsyncOp struct {
	p       pending
	consume func(resp []byte) error
}

// Wait blocks for the operation's result.
func (op *AsyncOp) Wait() error { return op.p.wait(op.consume) }

// AsyncRef is an in-flight StageRefAtAsync or AdoptRefAsync; Wait must
// be called exactly once and yields the staged or adopted ref.
type AsyncRef struct {
	op   AsyncOp
	size int64
	key  uint64
}

// StageRefAtAsync starts a caller-keyed stage (MStageAt — the
// replica-placement primitive) and returns a future for the ref. A
// non-empty replicas list makes the server record the key's epoch-1
// directory entry together with the ref (the §D16 handoff); nil records
// nothing. data must stay valid and unmodified until Wait returns (it is
// re-sent if the call retries).
func (cl *Client) StageRefAtAsync(key uint64, replicas []uint32, data []byte) *AsyncRef {
	ar := &AsyncRef{size: int64(len(data)), key: key, op: AsyncOp{consume: checkRefKeyResp}}
	p := &ar.op.p
	cl.node.callAsync(p, cl.addr, dmwire.MStageAt,
		dmwire.StageAtReq{Key: key, Replicas: replicas}.AppendHdr(p.hb[:0]), data)
	return ar
}

// AdoptRefAsync starts moving ref to this session under the
// caller-chosen newKey (see AdoptRef) and returns a future for the
// adopted ref: the pool's replicated adopt issues one per copy before
// waiting on any.
func (cl *Client) AdoptRefAsync(ref dm.Ref, newKey uint64, replicas []uint32) *AsyncRef {
	ar := &AsyncRef{size: ref.Size, key: newKey, op: AsyncOp{consume: checkRefKeyResp}}
	p := &ar.op.p
	cl.node.callAsync(p, cl.addr, dmwire.MAdoptRef,
		dmwire.AdoptRefReq{Key: ref.Key, NewKey: newKey, Replicas: replicas}.Append(p.hb[:0]), nil)
	return ar
}

// FreeRefAsync starts dropping the ref's own page hold and returns a
// future.
func (cl *Client) FreeRefAsync(ref dm.Ref) *AsyncOp {
	op := &AsyncOp{}
	cl.node.callAsync(&op.p, cl.addr, dmwire.MFreeRef, dmwire.FreeRefReq{Key: ref.Key}.Append(op.p.hb[:0]), nil)
	return op
}

// checkRefKeyResp validates a stage_at or adopt_ref response body.
func checkRefKeyResp(resp []byte) error {
	_, err := dmwire.UnmarshalRefKeyResp(resp)
	return err
}

// Wait blocks for the staging or adoption result.
func (ar *AsyncRef) Wait() (dm.Ref, error) {
	if err := ar.op.Wait(); err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: ar.key, Size: ar.size}, nil
}
