package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmwire"
	"repro/internal/rpc"
	"repro/internal/stats"
)

// Handler processes one request body and returns the response body. It
// mirrors rpc.Handler for the live world (no simulation context).
type Handler func(from net.Addr, body []byte) ([]byte, error)

// handler is the one handler form a Node dispatches: a Handler that also
// sees the caller's session, which is how the DM server reaches the DM
// state register attached to it.
type handler func(sess *serverSession, from net.Addr, body []byte) ([]byte, error)

// handlerEntry pairs a handler with its dispatch mode.
type handlerEntry struct {
	h handler
	// fast handlers run to completion on the connection's read loop
	// (eRPC-style): no goroutine spawn, and the read loop recycles the
	// request frame right after serve. They must be short, must not call
	// back into the network, and must not return a body aliasing the
	// request.
	fast bool
}

// NodeConfig bounds a live endpoint's resource use and failure behaviour
// (DESIGN.md §D8). The zero value of any field means "use the default".
type NodeConfig struct {
	// MaxFrameSize caps one frame's payload; frames claiming more are
	// rejected before any allocation, so a corrupt or hostile length
	// prefix cannot balloon memory. Default 16 MiB.
	MaxFrameSize uint32
	// MaxSlowPerConn caps the persistent workers that run one
	// connection's slow (Handle-registered) handlers; with every worker
	// busy at the cap the connection's read loop blocks, backpressuring
	// the peer instead of exhausting server memory. Default 64; negative
	// removes the cap.
	MaxSlowPerConn int
	// CallTimeout is the default overall deadline for one Call,
	// including every retry. Default 15s. Negative disables.
	CallTimeout time.Duration
	// AttemptTimeout bounds a single request/response attempt inside a
	// Call, so retries can fire before the overall deadline. Default 3s.
	AttemptTimeout time.Duration
	// DialTimeout bounds connection establishment. Default 3s.
	DialTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (beyond
	// the first attempt). Every call retries: its session stamp keeps it
	// at-most-once (session.go). Default 3. Negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// (with jitter) up to RetryBackoffMax. Defaults 5ms / 500ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Dialer replaces the default dial, letting tests route connections
	// through fault injectors (internal/faultnet). Nil dials TCP, or the
	// same-host companion of a loopback listener (Node.Serve).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

// writeTimeout bounds one response write, so a peer that stops reading
// cannot wedge a serving loop forever.
const writeTimeout = 30 * time.Second

// DefaultNodeConfig returns the production defaults described per field.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MaxFrameSize:    DefaultMaxFrameSize,
		MaxSlowPerConn:  64,
		CallTimeout:     15 * time.Second,
		AttemptTimeout:  3 * time.Second,
		DialTimeout:     3 * time.Second,
		MaxRetries:      3,
		RetryBackoff:    5 * time.Millisecond,
		RetryBackoffMax: 500 * time.Millisecond,
	}
}

// withDefaults fills zero fields with the defaults.
func (c NodeConfig) withDefaults() NodeConfig {
	d := DefaultNodeConfig()
	if c.MaxFrameSize == 0 {
		c.MaxFrameSize = d.MaxFrameSize
	}
	if c.MaxSlowPerConn == 0 {
		c.MaxSlowPerConn = d.MaxSlowPerConn
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = d.CallTimeout
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = d.AttemptTimeout
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = d.RetryBackoffMax
	}
	return c
}

// Node is a live RPC endpoint: it serves registered methods over TCP
// (and over a Unix socket to same-host peers, see Serve) and issues
// calls to other nodes, multiplexing concurrent requests per
// connection — the real-network counterpart of the simulator's rpc.Node,
// speaking the same frame format the DM protocol uses.
type Node struct {
	cfg      NodeConfig
	mu       sync.Mutex
	handlers atomic.Pointer[map[rpc.Method]handlerEntry]
	peers    map[string]*conn      // lazily dialed, keyed by address
	inbound  map[net.Conn]struct{} // accepted connections, for Close
	ln       net.Listener
	local    net.Listener // ln's same-host companion, or nil
	closed   chan struct{}
	once     sync.Once
	conns    sync.WaitGroup
	sess     atomic.Pointer[callerSession] // this node's calls
	sessions sessionTable                  // the sessions calling this node
	wstats   writeStats
	ops      opStats
	lat      stats.AtomicHistogram // per-call latency, ns, sync + async
	// slowWorkers counts slow-handler workers started, over every
	// connection (tests).
	slowWorkers atomic.Int64
}

// WriteStats snapshots the node's wire-write counters, aggregated across
// every connection (outbound and serving) it has owned.
func (n *Node) WriteStats() WriteStats {
	frames := n.wstats.frames.Load()
	return WriteStats{
		Frames:          frames,
		Bytes:           n.wstats.bytes.Load(),
		DroppedFrames:   n.wstats.dropped.Load(),
		Batches:         frames,
		CoalescedFrames: frames,
	}
}

// Latency summarizes the node's per-call latency distribution
// (submission to completion, retries included; sync and async calls).
func (n *Node) Latency() stats.Summary { return n.lat.Summarize() }

// LatencyHistogram snapshots the node's per-call latency histogram for
// merging or custom quantiles.
func (n *Node) LatencyHistogram() *stats.Histogram { return n.lat.Snapshot() }

// NewNode returns an empty node with default configuration; register
// handlers, then Serve and/or Call.
func NewNode() *Node { return NewNodeWith(NodeConfig{}) }

// NewNodeWith returns an empty node with cfg (zero fields defaulted).
func NewNodeWith(cfg NodeConfig) *Node {
	n := &Node{
		cfg:     cfg.withDefaults(),
		peers:   make(map[string]*conn),
		inbound: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	n.newSession()
	empty := make(map[rpc.Method]handlerEntry)
	n.handlers.Store(&empty)
	return n
}

// newSession starts a fresh caller session: calls from now on carry its
// stamp, and calls already holding a slot finish on the old one.
func (n *Node) newSession() { n.sess.Store(newCallerSession()) }

// Handle registers h for method m; it runs on one of the connection's
// worker goroutines. Its response may alias the request body, or be a
// GetBuf buffer it gives up to the serving slot. Duplicate registration
// panics.
func (n *Node) Handle(m rpc.Method, h Handler) { n.register(m, handlerEntry{h: adapt(h)}) }

// HandleFast registers h for method m as a run-to-completion handler: it
// executes inline on the connection's read loop with no per-request
// goroutine. Fast handlers must be short, must not issue nested calls,
// and must not return a response aliasing the request body.
func (n *Node) HandleFast(m rpc.Method, h Handler) {
	n.register(m, handlerEntry{h: adapt(h), fast: true})
}

// adapt turns a Handler into the session-aware form the node dispatches.
func adapt(h Handler) handler {
	return func(_ *serverSession, from net.Addr, body []byte) ([]byte, error) { return h(from, body) }
}

// register installs a handler via copy-on-write so dispatch is lock-free.
func (n *Node) register(m rpc.Method, e handlerEntry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := *n.handlers.Load()
	if _, dup := old[m]; dup {
		panic(fmt.Sprintf("live: duplicate handler for method %#x", uint16(m)))
	}
	next := make(map[rpc.Method]handlerEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[m] = e
	n.handlers.Store(&next)
}

// lookup finds the handler for m without locking.
func (n *Node) lookup(m rpc.Method) (handlerEntry, bool) {
	e, ok := (*n.handlers.Load())[m]
	return e, ok
}

// Serve accepts connections on ln until Close; it returns nil after Close.
// A plain loopback TCP listener also gets a same-host companion
// (local_linux.go), served until Serve returns or its own accept loop
// ends.
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	select {
	case <-n.closed:
		// Close already ran (it cannot see this listener); refuse to serve.
		n.mu.Unlock()
		ln.Close()
		return nil
	default:
	}
	n.ln, n.local = ln, listenLocal(ln)
	if local := n.local; local != nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.accept(local)
			local.Close() // dials fall back to TCP rather than queue unserved
		}()
		defer func() {
			local.Close()
			<-done
		}()
	}
	n.mu.Unlock()
	return n.accept(ln)
}

// accept serves every connection ln accepts until ln closes.
func (n *Node) accept(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return nil
			default:
				return err
			}
		}
		n.mu.Lock()
		select {
		case <-n.closed: // Shutdown may already be waiting on conns
			n.mu.Unlock()
			c.Close()
			return nil
		default:
		}
		n.inbound[c] = struct{}{}
		n.conns.Add(1)
		n.mu.Unlock()
		go func() {
			defer n.conns.Done()
			defer func() {
				n.mu.Lock()
				delete(n.inbound, c)
				n.mu.Unlock()
			}()
			n.serveConn(c)
		}()
	}
}

// Close stops serving, closes peer connections, and waits for in-flight
// request goroutines spawned by the accept loop. It is Shutdown with no
// drain grace: inbound connections are cut immediately.
func (n *Node) Close() error { return n.Shutdown(0) }

// Shutdown stops accepting, closes peer connections, then lets inbound
// connections drain naturally for up to grace before cutting the
// stragglers; it always waits for every serving goroutine to finish.
func (n *Node) Shutdown(grace time.Duration) error {
	var err error
	n.once.Do(func() {
		n.mu.Lock()
		close(n.closed)
		if n.local != nil {
			// First, before Serve's own close can start and make this
			// one return before the name is released.
			n.local.Close()
		}
		if n.ln != nil {
			err = n.ln.Close()
		}
		for _, c := range n.peers {
			c.c.Close()
		}
		n.mu.Unlock()
		if grace > 0 {
			drained := make(chan struct{})
			go func() {
				n.conns.Wait()
				close(drained)
			}()
			t := time.NewTimer(grace)
			select {
			case <-drained:
			case <-t.C:
			}
			t.Stop()
		}
		// Cut whatever is left, or their serve goroutines would block in
		// readFrame while clients linger.
		n.mu.Lock()
		for c := range n.inbound {
			c.Close()
		}
		n.mu.Unlock()
		n.conns.Wait()
	})
	return err
}

// request is one inbound request; a slow one is handed from its
// connection's read loop to one of its workers.
type request struct {
	e       handlerEntry
	sess    *serverSession
	seq     uint64
	reqID   uint64
	payload []byte // the pooled request frame
	body    []byte // the request body within payload
}

// serveConn handles one inbound connection. Fast handlers run to
// completion on this goroutine; slow handlers run on the connection's
// persistent workers, at most MaxSlowPerConn of them, so a worker's
// grown stack is reused rather than grown again for every request.
// Whichever goroutine answers a request writes its response, through the
// connection's writer (writer.go).
func (n *Node) serveConn(c net.Conn) {
	defer c.Close()
	// On a write failure the writer closes the socket so this read loop
	// unblocks.
	w := &connWriter{c: c, stats: &n.wstats, onFail: func(error) { c.Close() }}
	br := bufio.NewReaderSize(c, 64<<10)
	// A slow request goes to an idle worker over work, else to a new
	// worker while fewer than MaxSlowPerConn exist, else the send blocks
	// until a worker frees up — backpressure on this read loop. busy
	// counts requests whose handler has not returned: a worker past its
	// handler counts as idle, since all it has left is to queue the
	// response, so a request that the response itself prompted never
	// starts a second worker. Closing work on return ends the workers.
	work := make(chan request)
	defer close(work)
	var busy atomic.Int32
	workers := 0
	var hdr [frameHeaderSize]byte
	// sess caches the session this connection's requests last named, so
	// the node's session table is consulted only when a stamp names
	// another or the idle sweep dropped it.
	var sess *serverSession
	for {
		kind, reqID, payload, err := readFrameBuf(br, hdr[:], n.cfg.MaxFrameSize)
		if err != nil {
			return
		}
		id, seq, m, reqBody, ok := parseRequest(payload)
		if kind != kindRequest || !ok {
			putBuf(payload)
			return
		}
		if sess == nil || sess.id != id || sess.gone.Load() {
			sess = n.sessions.get(id)
		}
		e, ok := n.lookup(m)
		if !ok {
			e = handlerEntry{h: noSuchMethod}
		}
		if e.fast {
			// fast contract: the response never aliases the request, so
			// the request buffer recycles right after.
			sess, err = n.serve(c, w, nil, request{e: e, sess: sess, seq: seq, reqID: reqID, body: reqBody})
			putBuf(payload)
			if err != nil {
				return
			}
			continue
		}
		req := request{e: e, sess: sess, seq: seq, reqID: reqID, payload: payload, body: reqBody}
		if int(busy.Add(1)) > workers && (n.cfg.MaxSlowPerConn <= 0 || workers < n.cfg.MaxSlowPerConn) {
			workers++
			n.slowWorkers.Add(1)
			go n.slowWorker(c, w, &busy, work, req)
			continue
		}
		work <- req
	}
}

// parseRequest splits a request payload into its stamp, method and body;
// ok is false when the payload is too short to hold the first two.
func parseRequest(payload []byte) (session, seq uint64, m rpc.Method, body []byte, ok bool) {
	if len(payload) < stampSize+2 {
		return 0, 0, 0, nil, false
	}
	session = binary.BigEndian.Uint64(payload)
	seq = binary.BigEndian.Uint64(payload[8:])
	m = rpc.Method(binary.BigEndian.Uint16(payload[stampSize:]))
	return session, seq, m, payload[stampSize+2:], true
}

// slowWorker serves req, then whatever its connection's read loop hands
// it, until the loop closes work.
func (n *Node) slowWorker(c net.Conn, w *connWriter, busy *atomic.Int32, work <-chan request, req request) {
	n.serve(c, w, busy, req)
	for req := range work {
		n.serve(c, w, busy, req)
	}
}

// serve answers one request: it runs the handler unless the request's
// slot answers for it (a replay or the stale refusal), records the
// response in the slot and writes it. The slot keeps one buffer until it
// moves on, by one rule for fast and slow handlers alike: a response in
// a pooled buffer (size-class capacity) is the slot's, and the request
// frame is recycled at once; any other response may alias a slow
// request's frame, which the slot keeps instead. serve drops a slow
// request's busy count once the handler has returned.
func (n *Node) serve(c net.Conn, w *connWriter, busy *atomic.Int32, req request) (*serverSession, error) {
	sess, run, status, resp := n.admit(req.sess, req.seq)
	hold := req.payload
	if run {
		status, resp = runHandler(req.e.h, sess, c.RemoteAddr(), req.body)
		if capClass(cap(resp)) >= 0 {
			putBuf(hold)
			hold = resp
		}
	}
	if busy != nil {
		busy.Add(-1)
	}
	if !run {
		err := writeResponse(w, req.reqID, status, resp, true)
		putBuf(hold)
		return sess, err
	}
	kept := sess.publish(req.seq, status, resp, hold)
	err := writeResponse(w, req.reqID, status, resp, false)
	sess.settle(req.seq, hold, kept)
	return sess, err
}

// writeResponse writes one response frame: a pooled header (frame
// header + status) and resp, in one vectored write. resp is consumed
// before return; own marks it pool-recyclable once consumed (a replay's
// private copy). Responses carry no deadline of their own: the writer's
// write timeout bounds them.
func writeResponse(w *connWriter, reqID uint64, status byte, resp []byte, own bool) error {
	fh := getBuf(frameHeaderSize + 1)
	binary.BigEndian.PutUint32(fh, uint32(1+len(resp)))
	fh[4] = kindResponse
	binary.BigEndian.PutUint64(fh[5:], reqID)
	fh[frameHeaderSize] = status
	err := w.write(fh, resp, time.Time{})
	putBuf(fh)
	if own {
		putBuf(resp)
	}
	return err
}

// errNoSuchMethod is the catch-all for unknown methods.
var errNoSuchMethod = errors.New("live: no such method")

// noSuchMethod is the handler of every unregistered method.
func noSuchMethod(*serverSession, net.Addr, []byte) ([]byte, error) { return nil, errNoSuchMethod }

// runHandler invokes h and maps its result onto a wire status.
func runHandler(h handler, sess *serverSession, from net.Addr, body []byte) (byte, []byte) {
	resp, err := h(sess, from, body)
	if err != nil {
		return dmwire.StatusOf(err), []byte(err.Error())
	}
	return dmwire.StatusOK, resp
}

// peer returns (dialing if needed) the multiplexed connection to addr.
// deadline, when nonzero, bounds the dial along with cfg.DialTimeout.
func (n *Node) peer(addr string, deadline time.Time) (*conn, error) {
	n.mu.Lock()
	c, ok := n.peers[addr]
	n.mu.Unlock()
	if ok {
		c.pmu.Lock()
		dead := c.dead
		c.pmu.Unlock()
		if dead == nil {
			return c, nil
		}
		// Reconnect over a fresh socket.
		n.mu.Lock()
		if n.peers[addr] == c {
			delete(n.peers, addr)
		}
		n.mu.Unlock()
	}
	timeout := n.cfg.DialTimeout
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem <= 0 {
			return nil, fmt.Errorf("%w: dial %s: %v", errConnFailed, addr, ErrDeadline)
		} else if timeout <= 0 || rem < timeout {
			timeout = rem
		}
	}
	nc, err := n.dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", errConnFailed, addr, err)
	}
	c = &conn{c: nc, maxFrame: n.cfg.MaxFrameSize, pending: make(map[uint64]chan []byte)}
	// The writer's failure hook poisons the whole conn (and closes the
	// socket), so a write error surfaces to every pending call, not just
	// the one whose frame failed.
	c.w = &connWriter{c: nc, stats: &n.wstats, onFail: c.fail}
	go c.readLoop()
	n.mu.Lock()
	select {
	case <-n.closed:
		// The node closed while we dialed; don't leak the socket.
		n.mu.Unlock()
		nc.Close()
		return nil, fmt.Errorf("%w: %s: node closed", errConnFailed, addr)
	default:
	}
	if prev, raced := n.peers[addr]; raced {
		n.mu.Unlock()
		nc.Close()
		return prev, nil
	}
	n.peers[addr] = c
	n.mu.Unlock()
	return c, nil
}

// dial connects to addr with cfg.Dialer if set, else over the companion
// of a same-host listener if it answers, else over TCP.
func (n *Node) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if n.cfg.Dialer != nil {
		return n.cfg.Dialer(addr, timeout)
	}
	var d net.Dialer
	if timeout != 0 {
		d.Deadline = time.Now().Add(timeout)
	}
	name := localName(addr)
	if name == "" {
		return d.Dial("tcp", addr)
	}
	c, refused := dialLocal(&d, name)
	if c != nil {
		return c, nil
	}
	tc, err := d.Dial("tcp", addr)
	if err == nil && refused {
		// A just-started Serve may not have bound the companion; the
		// connect let it run. Nothing has been sent on tc yet.
		if c, _ = dialLocal(&d, name); c != nil {
			tc.Close()
			return c, nil
		}
	}
	return tc, err
}

// Call invokes method m at addr with body and returns the response body
// (a fresh buffer the caller owns); non-OK statuses surface as the shared
// dm errors or *rpc.AppError.
func (n *Node) Call(addr string, m rpc.Method, body []byte) ([]byte, error) {
	var out []byte
	err := n.CallConsume(addr, m, nil, body, func(resp []byte) error {
		out = append([]byte(nil), resp...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CallConsume invokes method m at addr, writing hdr and payload as the
// request body without an intermediate copy (vectored write), and hands
// the pooled response body to consume before recycling it. consume may be
// nil when the response body is irrelevant; it must not retain the slice.
func (n *Node) CallConsume(addr string, m rpc.Method, hdr, payload []byte, consume func(resp []byte) error) error {
	return n.CallConsumeWithin(addr, m, hdr, payload, 0, consume)
}
