// Package liverpc is the application-level DmRPC framework over the live
// TCP path: named service methods dispatched on a live.Node, client
// stubs with deadline/trace propagation reusing the transport's
// at-most-once retries, and size-aware Payload arguments whose small
// values travel inline while large ones are staged once into the DM
// server pool (a pool.Client session, one shard or many) and flow
// through the rest of the call chain as a located Ref (paper §IV). It
// is the real-socket counterpart of the simulator's internal/core +
// internal/msvc service layer: the same pass-by-reference argument
// model, but between real processes over real TCP.
//
// Ownership model: whoever stages a payload owns its ref and releases it
// (Caller.Release) once the call chain no longer needs it, unless a
// consumer that is the payload's last reader takes the release over by
// consuming it (Ctx.Consume: read and free in one exchange) or adopting
// it (Ctx.Adopt: the ref moves under the consumer's own session in one
// exchange, so a crashed producer's session reap cannot take it away) —
// then the producer releases only if the call failed, when the consume
// or adopt may not have run (DESIGN.md §D9).
package liverpc

import (
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/rpc"
)

// DM is the disaggregated-memory backend liverpc stages, fetches and
// consumes through: exactly the surface it calls on *pool.Client (one
// server is a one-shard pool). Ref.Server is a cluster-wide shard ID,
// so every ref payload travels located, with its replica hints
// (Replicas). The *From reads fail over across replicas, past stale
// hints too: a migration (DESIGN.md §D16) may have moved the copies
// since the payload was marshaled, and the backend falls back on its
// ring successors and the cluster registry.
type DM interface {
	StageRef(data []byte) (dm.Ref, error)
	Replicas(ref dm.Ref) []uint32
	ReadRefLeaseFrom(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error)
	ConsumeRefLeaseFrom(ref dm.Ref, hints []uint32) (*live.Buf, error)
	AdoptRefFrom(ref dm.Ref, hints []uint32) (dm.Ref, error)
	FreeRef(ref dm.Ref) error
	// Forget stops the backend tracking a ref that another endpoint
	// freed or adopted (a consumed chain argument, composed media), so
	// repair never revives it.
	Forget(ref dm.Ref)
	Close() error
}

// LocatedDM, ReplicatedDM and BufDM are the names of the capability
// interfaces DM replaced, kept as aliases for code that still asserts
// them.
type (
	LocatedDM    = DM
	ReplicatedDM = DM
	BufDM        = DM
)

// methodCall is the single transport-level method every liverpc service
// registers on its live.Node; application methods are dispatched by name
// from the call envelope. Kept in its own range clear of the DM
// (0x0100), CXL (0x0200), store (0x0300), msvc (0x04xx) and bench
// (0x0500) method spaces.
const methodCall rpc.Method = 0x0600

// defaultInlineThreshold is the size-aware transfer cutoff: payloads at
// or below this many bytes pass by value inside the envelope.
const defaultInlineThreshold = 1024

// Config tunes one liverpc endpoint (a Caller or a Service).
type Config struct {
	// Net holds the transport knobs (deadlines, retries, frame caps,
	// dialer) for the endpoint's live.Node. Zero fields use the live
	// defaults.
	Net live.NodeConfig
	// InlineThreshold is the size-aware cutoff in bytes. Zero means
	// defaultInlineThreshold; negative means "always pass by reference".
	InlineThreshold int
	// ForceInline disables pass-by-reference entirely, producing the
	// pass-by-value (eRPC-style) baseline from the same application code.
	// It also bypasses the DM backend's hot-ref cache as a side effect:
	// with nothing staged there are no refs to key on, so
	// pool.Config.CacheBytes on the backend is inert under ForceInline.
	ForceInline bool
}

// threshold resolves the staging cutoff.
func (c Config) threshold() int {
	if c.ForceInline {
		return int(^uint(0) >> 1) // MaxInt: everything inlines
	}
	if c.InlineThreshold == 0 {
		return defaultInlineThreshold
	}
	if c.InlineThreshold < 0 {
		return -1
	}
	return c.InlineThreshold
}

// callTimeout resolves the default overall per-call deadline.
func (c Config) callTimeout() time.Duration {
	if c.Net.CallTimeout != 0 {
		return c.Net.CallTimeout
	}
	return live.DefaultNodeConfig().CallTimeout
}

// Caller issues service calls: the client stub side of the framework.
// A Caller owns its live.Node (transport and at-most-once retries,
// DESIGN.md §D8) and borrows a DM client for staging; it is safe for
// concurrent use.
type Caller struct {
	node *live.Node
	dm   DM
	cfg  Config
}

// NewCaller builds a client stub endpoint. dmc may be nil when the
// configuration never stages (ForceInline), or when the caller only
// sends inline payloads and never materializes refs.
func NewCaller(dmc DM, cfg Config) *Caller {
	return &Caller{node: live.NewNodeWith(cfg.Net), dm: dmc, cfg: cfg}
}

// Close tears down the caller's transport (not the borrowed DM client).
func (c *Caller) Close() error { return c.node.Close() }

// errNoDM is returned when a ref operation reaches a DM-less endpoint.
var errNoDM = fmt.Errorf("liverpc: pass-by-reference payload reached an endpoint with no DM client")

// Stage builds a size-aware payload from data: at or below the
// configured threshold the bytes inline; above it they are staged into
// the DM pool in one round trip and only the Ref travels. The caller
// owns a staged ref and must Release it when the chain is done.
func (c *Caller) Stage(data []byte) (Payload, error) {
	if len(data) <= c.cfg.threshold() {
		return Inline(data), nil
	}
	if c.dm == nil {
		return Payload{}, errNoDM
	}
	ref, err := c.dm.StageRef(data)
	if err != nil {
		return Payload{}, err
	}
	return ByRef(ref, c.dm.Replicas(ref)), nil
}

// Fetch materializes a payload: inline bytes are returned as-is
// (aliased); ref payloads are read through the DM server (read_ref, no
// mapping) into a fresh buffer.
func (c *Caller) Fetch(p Payload) ([]byte, error) {
	return fetch(c.dm, p)
}

// Release drops a staged payload's ref hold. Inline payloads are no-ops.
func (c *Caller) Release(p Payload) error {
	return release(c.dm, p)
}

// handOff calls method at addr with data, staged by size, as the first
// argument and extra after it, for a callee that takes the staged ref
// over by consuming or adopting it. A failed call may have failed before
// that takeover, so handOff then releases the ref; dm.ErrBadRef from the
// release means the takeover did run, and is dropped like any other
// release error. After a successful call the backend, which tracks the
// refs it staged for repair, is told to forget the ref.
func (c *Caller) handOff(addr, method string, data []byte, extra ...Payload) ([]Payload, error) {
	arg, err := c.Stage(data)
	if err != nil {
		return nil, err
	}
	var buf [2]Payload // room for every caller's args without a heap slice
	res, err := c.Call(addr, method, append(append(buf[:0], arg), extra...)...)
	if err != nil {
		_ = c.Release(arg)
		return nil, err
	}
	if arg.IsRef() {
		c.dm.Forget(arg.Ref())
	}
	return res, nil
}

// Call invokes method at addr with args. The call is bounded by the
// endpoint's default timeout, retries included; the deadline rides the
// envelope, so callees inherit the remaining budget. The call is retried
// across transport failures via the node's reconnect path; the serving
// node runs it at most once. More than dmwire.MaxCallArgs arguments fail
// before anything is sent. Returned inline payloads are the caller's own
// memory; returned refs are owned per the application's protocol.
func (c *Caller) Call(addr, method string, args ...Payload) ([]Payload, error) {
	return c.callWithin(addr, method, 0, args...)
}

// callWithin is Call bounded by timeout instead: 0 uses the endpoint's
// default; negative disables the bound.
func (c *Caller) callWithin(addr, method string, timeout time.Duration, args ...Payload) ([]Payload, error) {
	env := dmwire.CallEnvelope{Method: method, TraceID: rand.Uint64()}
	return c.issue(addr, &env, args, timeout, nil)
}

// callHdrCap sizes the stack buffer a call's envelope header is encoded
// into; a header that outgrows it (inline arguments ahead of the last)
// moves to the heap.
const callHdrCap = 256

// issue resolves timeout against the endpoint default, stamps the
// deadline budget into the envelope, sends it with args and decodes the
// result list; shared by top-level and nested (Ctx) calls. The header
// is encoded on the stack and a final inline argument rides as its own
// iovec. A nested call's results land in ctx's call-scoped storage, a
// top-level call's (ctx nil) in memory the caller owns.
func (c *Caller) issue(addr string, env *dmwire.CallEnvelope, args []Payload, timeout time.Duration, ctx *Ctx) ([]Payload, error) {
	if timeout == 0 {
		timeout = c.cfg.callTimeout()
	}
	if timeout > 0 {
		ms := int64((timeout + time.Millisecond - 1) / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		if max := int64(^uint32(0)); ms > max {
			ms = max
		}
		env.DeadlineMillis = uint32(ms)
	}
	var hb [callHdrCap]byte
	hdr, bulk, err := dmwire.AppendCall(hb[:0], env, args)
	if err != nil {
		return nil, fmt.Errorf("liverpc: %s: %w", env.Method, err)
	}
	var out []Payload
	err = c.node.CallConsumeWithin(addr, methodCall, hdr, bulk, timeout,
		func(resp []byte) (err error) {
			out, err = results(resp, ctx)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resultScratch is how many decoded results results keeps on its stack.
const resultScratch = 8

// results decodes a response's result list. The response buffer is
// pooled and recycled once the call returns, so inline results are
// copied out, all of them into one buffer: for a nested call into ctx's
// call-scoped storage, valid until its handler returns; for a top-level
// call (ctx nil) into one fresh payload slice and one fresh buffer the
// caller owns. A ref result that is not located is refused.
func results(resp []byte, ctx *Ctx) ([]Payload, error) {
	var scratch [resultScratch]dmwire.CallArg
	wire, err := dmwire.DecodeReturn(resp, scratch[:0])
	if err != nil || len(wire) == 0 {
		return nil, err
	}
	inl := 0
	for _, a := range wire {
		inl += len(a.Inline)
	}
	var ps []Payload
	var buf []byte
	if ctx == nil {
		ps, buf = make([]Payload, 0, len(wire)), make([]byte, 0, inl)
	} else {
		ctx.mu.Lock()
		defer ctx.mu.Unlock()
		// Grown room, so the appends below never move what earlier
		// nested calls' results alias.
		ps, buf = slices.Grow(ctx.res, len(wire)), slices.Grow(ctx.inl, inl)
	}
	start := len(ps)
	for _, a := range wire {
		p, err := fromWire(a)
		if err != nil {
			return nil, err
		}
		if !p.isRef {
			off := len(buf)
			buf = append(buf, a.Inline...)
			p.inline = buf[off:len(buf):len(buf)]
		}
		ps = append(ps, p)
	}
	if ctx != nil {
		ctx.res, ctx.inl = ps, buf
	}
	return ps[start:len(ps):len(ps)], nil
}

// Handler processes one service call. The args slice, ctx and every
// inline byte the handler sees (its args', its nested calls' results')
// are call-scoped: valid only until the handler returns, when the
// service recycles them — a handler that retains inline bytes must copy
// them (Fetch on a ref payload returns a fresh buffer; Consume leases a
// pooled one until its Release). A ref payload is a
// value and may be kept past the return. The handler may return its
// args or its nested calls' results as its own: the service encodes the
// results before it recycles anything. Handlers may issue nested calls
// via ctx, from several goroutines too, as long as all of them end
// before the handler returns.
type Handler func(ctx *Ctx, args []Payload) ([]Payload, error)

// Service is one liverpc endpoint serving named methods over TCP — the
// real-network counterpart of a simulator msvc.Service. It embeds a
// Caller, so handlers issue nested calls (with deadline/trace
// propagation) over the same multiplexed connections.
type Service struct {
	name   string
	caller *Caller
	mu     sync.RWMutex
	meths  map[string]Handler
}

// NewService builds a service named name over a borrowed DM backend
// (nil for inline-only services, e.g. pure movers in by-value mode).
// Register handlers, then Serve.
func NewService(name string, dmc DM, cfg Config) *Service {
	s := &Service{
		name:   name,
		caller: NewCaller(dmc, cfg),
		meths:  make(map[string]Handler),
	}
	s.caller.node.Handle(methodCall, s.dispatch)
	return s
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Caller returns the service's embedded client stub (for issuing
// top-level calls from the same endpoint).
func (s *Service) Caller() *Caller { return s.caller }

// Handle registers h for the named method. Duplicate registration
// panics; registering after Serve is allowed (copy-on-read map).
func (s *Service) Handle(method string, h Handler) {
	if len(method) > dmwire.MaxMethodLen {
		panic(fmt.Sprintf("liverpc: method name %q exceeds %d bytes", method, dmwire.MaxMethodLen))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.meths[method]; dup {
		panic(fmt.Sprintf("liverpc: duplicate handler for method %q", method))
	}
	s.meths[method] = h
}

// Serve accepts connections on ln until Close; it returns nil after
// Close.
func (s *Service) Serve(ln net.Listener) error { return s.caller.node.Serve(ln) }

// Close stops serving and tears down the service's transport (not its
// borrowed DM client).
func (s *Service) Close() error { return s.caller.node.Close() }

// dispatch is the transport-level handler: decode the envelope into a
// pooled Ctx's storage, run the named method, encode the result list
// into a pooled buffer that the serving slot keeps for replay and then
// recycles (live.GetBuf). Inline args alias the request frame, which
// outlives the handler. The Ctx goes back to the pool only after the
// results are encoded, since they may alias its storage.
func (s *Service) dispatch(_ net.Addr, body []byte) ([]byte, error) {
	ctx := ctxPool.Get().(*Ctx)
	defer ctx.recycle()
	method, env, err := dmwire.DecodeCall(body, ctx.wire)
	if err != nil {
		return nil, err
	}
	ctx.wire = env.Args
	s.mu.RLock()
	h, ok := s.meths[string(method)]
	s.mu.RUnlock()
	if !ok {
		return nil, &rpc.AppError{Status: dmwire.StatusErr,
			Msg: fmt.Sprintf("liverpc: service %q has no method %q", s.name, method)}
	}
	ctx.svc, ctx.TraceID, ctx.Hop = s, env.TraceID, env.Hop
	if env.DeadlineMillis > 0 {
		ctx.Deadline = time.Now().Add(time.Duration(env.DeadlineMillis) * time.Millisecond)
	}
	for _, a := range env.Args {
		p, err := fromWire(a)
		if err != nil {
			return nil, err
		}
		ctx.args = append(ctx.args, p)
	}
	out, err := h(ctx, ctx.args[:len(ctx.args):len(ctx.args)])
	if err != nil {
		return nil, err
	}
	n := 1
	for _, p := range out {
		n += p.WireSize()
	}
	return dmwire.AppendReturn(live.GetBuf(n)[:0], out)
}

// Ctx carries one in-flight call's propagation state into its handler,
// and the call-scoped storage behind its args and its nested calls'
// results. It is pooled: valid only until the handler returns.
type Ctx struct {
	// svc is the service executing the handler.
	svc *Service
	// TraceID identifies the end-to-end request chain.
	TraceID uint64
	// Hop is this call's nesting depth (0 at the top-level caller).
	Hop uint8
	// Deadline is the propagated absolute deadline (zero when the caller
	// set none).
	Deadline time.Time

	wire []dmwire.CallArg // the request's decoded arguments
	args []Payload        // the handler's args
	mu   sync.Mutex       // guards res and inl against concurrent nested calls
	res  []Payload        // nested calls' results
	inl  []byte           // their inline bytes
}

// ctxPool recycles dispatch's per-call state.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// ctxKeepBytes and ctxKeepResults cap the result storage a pooled Ctx
// keeps, so one call with large by-value results or many nested calls
// does not pin that memory in the pool.
const (
	ctxKeepBytes   = 256 << 10
	ctxKeepResults = 256
)

// recycle drops the call's references and returns c to the pool with its
// storage emptied for the next call.
func (c *Ctx) recycle() {
	clear(c.wire)
	clear(c.args)
	clear(c.res)
	c.svc, c.TraceID, c.Hop, c.Deadline = nil, 0, 0, time.Time{}
	c.wire, c.args, c.res, c.inl = c.wire[:0], c.args[:0], c.res[:0], c.inl[:0]
	if cap(c.inl) > ctxKeepBytes {
		c.inl = nil
	}
	if cap(c.res) > ctxKeepResults {
		c.res = nil
	}
	ctxPool.Put(c)
}

// Remaining returns the budget left before the propagated deadline
// (a large positive duration when none was set).
func (c *Ctx) Remaining() time.Duration {
	if c.Deadline.IsZero() {
		return time.Duration(int64(^uint64(0) >> 1))
	}
	return time.Until(c.Deadline)
}

// Call issues a nested call to addr, propagating the trace ID,
// incrementing the hop depth, and shrinking the deadline to the
// remaining budget — so a chain's total latency is bounded by the
// top-level caller's single timeout.
func (c *Ctx) Call(addr, method string, args ...Payload) ([]Payload, error) {
	var timeout time.Duration
	if !c.Deadline.IsZero() {
		if timeout = time.Until(c.Deadline); timeout <= 0 {
			return nil, fmt.Errorf("liverpc: %s: %w", method, live.ErrDeadline)
		}
	}
	env := dmwire.CallEnvelope{Method: method, TraceID: c.TraceID, Hop: c.Hop + 1}
	return c.svc.caller.issue(addr, &env, args, timeout, c)
}

// Stage builds a size-aware payload using the service's threshold and DM
// client (for handlers producing large results).
func (c *Ctx) Stage(data []byte) (Payload, error) { return c.svc.caller.Stage(data) }

// Fetch materializes a payload at this service (see Caller.Fetch).
func (c *Ctx) Fetch(p Payload) ([]byte, error) { return fetch(c.svc.caller.dm, p) }

// Consume materializes a payload as a leased buffer (DESIGN.md §D12) and
// frees its ref in the same exchange (consume_ref): a handler that is the
// payload's last reader takes over its release, and the producer must not
// release it again. A ref payload arrives in the transport's pooled
// response frame with no final copy; an inline payload is wrapped without
// copying and still aliases its transport buffer. The caller must Release
// the Buf exactly once.
func (c *Ctx) Consume(p Payload) (*live.Buf, error) { return consume(c.svc.caller.dm, p) }

// Release drops a staged payload's ref hold (see Caller.Release).
func (c *Ctx) Release(p Payload) error { return release(c.svc.caller.dm, p) }

// Adopt moves a ref payload under this service's session in one
// exchange (adopt_ref) and returns it under its new key: the ownership
// handoff for consumers that keep data beyond the call (a storage
// service keeping a composed post), which then survives the producer's
// death or lease reap. As with Consume, the argument's key is dead
// afterwards and the producer must not release it again. Inline
// payloads are copied (they alias a transport buffer).
func (c *Ctx) Adopt(p Payload) (Payload, error) {
	if !p.IsRef() {
		return Inline(append([]byte(nil), p.Inline()...)), nil
	}
	dmc := c.svc.caller.dm
	if dmc == nil {
		return Payload{}, errNoDM
	}
	own, err := dmc.AdoptRefFrom(p.Ref(), p.Replicas())
	if err != nil {
		return Payload{}, err
	}
	return ByRef(own, dmc.Replicas(own)), nil
}

// fetch reads a payload's bytes: inline aliased, refs as fetchLease plus
// the one copy into a fresh buffer.
func fetch(dmc DM, p Payload) ([]byte, error) {
	if !p.IsRef() {
		return p.Inline(), nil
	}
	b, err := fetchLease(dmc, p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, b.Len())
	copy(buf, b.Bytes())
	b.Release()
	return buf, nil
}

// fetchLease reads a payload as a leased live.Buf (DESIGN.md §D12):
// inline bytes wrapped as-is (aliased), refs through the backend's
// replica-aware zero-copy read, fed the payload's replica hints, arriving
// in the transport's pooled response frame (or the backend's hot-ref
// cache) with no final copy. The caller must Release the Buf exactly once.
func fetchLease(dmc DM, p Payload) (*live.Buf, error) {
	if !p.IsRef() {
		return live.WrapBuf(p.Inline()), nil
	}
	if dmc == nil {
		return nil, errNoDM
	}
	return dmc.ReadRefLeaseFrom(p.Ref(), p.Replicas(), 0, p.Size())
}

// consume reads a payload as a leased live.Buf and frees its ref in the
// same exchange, failing over across its replicas like a read.
func consume(dmc DM, p Payload) (*live.Buf, error) {
	if !p.IsRef() {
		return live.WrapBuf(p.Inline()), nil
	}
	if dmc == nil {
		return nil, errNoDM
	}
	return dmc.ConsumeRefLeaseFrom(p.Ref(), p.Replicas())
}

// release drops a ref payload's hold.
func release(dmc DM, p Payload) error {
	if !p.IsRef() {
		return nil
	}
	if dmc == nil {
		return errNoDM
	}
	return dmc.FreeRef(p.Ref())
}
