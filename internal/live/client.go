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

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/registry"
	"repro/internal/rpc"
	"repro/internal/stats"
)

// ClientConfig tunes a live DM client's failure behaviour. Net holds the
// transport knobs (deadlines, retries, frame caps, dialer).
type ClientConfig struct {
	Net NodeConfig
	// HeartbeatInterval paces the heartbeats started after Register when
	// the server leases sessions: every request renews the session, and a
	// heartbeat keeps an idle one alive and fetches the cache epoch. 0
	// derives TTL/3 from the server's granted lease; negative disables
	// heartbeats (an idle client then survives only one TTL — test hook
	// for crash simulation).
	HeartbeatInterval time.Duration
	// OnHeartbeatFailure, when set, is invoked from the heartbeat loop
	// after each failed lease renewal with the running count of
	// consecutive failures (resetting to zero on the next success), so
	// applications can observe an expiring session before data calls
	// start failing. It must not block; see also Client.SessionHealth.
	OnHeartbeatFailure func(addr string, consecutive int, err error)
	// OnEpochAdvance, when set, is invoked from the heartbeat loop each
	// time the server's cache-invalidation epoch is observed to advance
	// (DESIGN.md §D15) — the hook the pool uses to invalidate its
	// cluster-level cache. It must not block.
	OnEpochAdvance func(addr string, epoch uint64)
}

// defaultClientConfig returns the production defaults.
func defaultClientConfig() ClientConfig {
	return ClientConfig{Net: DefaultNodeConfig()}
}

// Client is a process's live session on one DM server: the Table II API
// over a real connection (TCP, or Unix to a same-host server). A cluster
// of servers is a pool.Client, which holds one Client per shard. Methods
// are safe for concurrent use.
//
// Refs minted here carry Server 0 and the Server field of a ref passed in
// is not interpreted — the session has exactly one server to ask — so a
// pool can hand its located refs (Server = shard ID) straight through.
//
// Failure model (DESIGN.md §D8): every call carries a deadline and is
// retried across transport failures, at most once in effect: the node's
// session stamp lets the server replay a response instead of running the
// call again. That session is also the DM session: every request renews
// it, a background heartbeat keeps it alive while the client is idle,
// and a client that dies is reaped by the server within one lease TTL.
type Client struct {
	mu    sync.Mutex
	cfg   ClientConfig
	node  *Node
	addr  string
	lease time.Duration
	shard int64 // shard ID the server announced at register; -1 = none

	hbStop   chan struct{}
	hbOnce   sync.Once
	hbWG     sync.WaitGroup
	hbFails  atomic.Int32  // consecutive heartbeat failures
	hbDead   atomic.Bool   // "session reaped" latch (see SessionReaped)
	hbCancel chan struct{} // heartbeat cancel, mu-guarded (Reregister)
	hbTotal  atomic.Int64  // cumulative heartbeat failures (never resets)

	// epochSeen is the last invalidation epoch the server reported (-1
	// until registration), so an advance fires OnEpochAdvance.
	epochSeen atomic.Int64
}

// conn is one multiplexed connection to a peer node. Every request
// frame leaves through w, the connection's writer (writer.go), written
// by the goroutine that issues the call.
type conn struct {
	c        net.Conn
	w        *connWriter
	maxFrame uint32
	pmu      sync.Mutex
	// pending maps a request id to the channel of the caller slot waiting
	// for it. A frame's payload (status byte + body) is a pooled buffer
	// whose ownership transfers to the receiving call; a nil payload
	// means the connection died.
	pending map[uint64]chan []byte
	nextID  uint64
	dead    error
}

// Dial connects to the server at addr with the default configuration.
func Dial(addr string) (*Client, error) {
	return DialConfig(defaultClientConfig(), addr)
}

// DialConfig is Dial with explicit configuration.
func DialConfig(cfg ClientConfig, addr string) (*Client, error) {
	cl := &Client{
		cfg:    cfg,
		node:   NewNodeWith(cfg.Net),
		addr:   addr,
		shard:  -1,
		hbStop: make(chan struct{}),
	}
	cl.epochSeen.Store(-1)
	dialDeadline := time.Time{}
	if d := cl.node.cfg.DialTimeout; d > 0 {
		dialDeadline = time.Now().Add(d)
	}
	if _, err := cl.node.peer(addr, dialDeadline); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Close stops the heartbeat and tears down the connection.
func (cl *Client) Close() error {
	cl.hbOnce.Do(func() { close(cl.hbStop) })
	cl.hbWG.Wait()
	return cl.node.Close()
}

// readLoop dispatches responses to waiting calls. The send happens under
// pmu together with the entry's removal, and every slot channel is
// buffered (cap 1) and receives at most one send per registration, so a
// caller that abandoned its call (deadline) can delete its entry and
// drain the channel race-free, and the read loop never blocks on a
// caller.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	var hdr [frameHeaderSize]byte
	for {
		kind, reqID, payload, err := readFrameBuf(br, hdr[:], c.maxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		if kind != kindResponse || len(payload) < 1 {
			putBuf(payload)
			c.fail(fmt.Errorf("live: malformed response frame"))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[reqID]
		if ok {
			delete(c.pending, reqID)
			select {
			case ch <- payload:
			default:
				// Defense in depth: the buffered channel receives exactly
				// one send, so this arm is unreachable unless the
				// invariant breaks — drop rather than wedge the loop.
				putBuf(payload)
			}
		}
		c.pmu.Unlock()
		if !ok {
			// Late response for an abandoned (timed-out) call.
			putBuf(payload)
		}
	}
}

// fail poisons the connection and unblocks all waiters: the writer is
// killed (later writes fail), the socket closed so the read loop and any
// blocked write return, and every pending call gets a nil payload — the
// channel belongs to a caller slot and is reused, so it is never closed.
// Idempotent — the read loop, the writer's failure hook, and failed
// senders may all race into it.
func (c *conn) fail(err error) {
	c.w.kill(err)
	c.c.Close()
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.dead == nil {
		c.dead = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		select {
		case ch <- nil:
		default:
		}
	}
}

// call performs one request/response exchange bounded by deadline (zero
// means none) on slot sl: send ships the request, await collects the
// response.
func (c *conn) call(m rpc.Method, hdr, payload []byte, cons consumer, deadline time.Time, sl *callerSlot) error {
	id, err := c.send(m, hdr, payload, deadline, sl)
	if err != nil {
		return err
	}
	return c.await(m, id, sl, deadline, cons)
}

// send registers sl's channel for a fresh request id and writes one
// request frame — frame header, session stamp, method, hdr, payload —
// returning the id for await. The head goes in a pooled buffer and
// payload rides as its own segment of the vectored write, with no
// intermediate copy. A failed send leaves sl's channel empty.
func (c *conn) send(m rpc.Method, hdr, payload []byte, deadline time.Time, sl *callerSlot) (uint64, error) {
	c.pmu.Lock()
	if dead := c.dead; dead != nil {
		c.pmu.Unlock()
		return 0, fmt.Errorf("%w: %v", errConnFailed, dead)
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = sl.ch
	c.pmu.Unlock()

	n := frameHeaderSize + stampSize + 2 + len(hdr)
	head := getBuf(n)
	fillRequestHead(head, n+len(payload)-frameHeaderSize, id, sl.st, m, hdr)
	err := c.w.write(head, payload, deadline)
	putBuf(head)
	if err != nil {
		// The writer's failure hook may already have answered the
		// registration with a nil payload: drop it and drain the slot.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		sl.drain()
		// A failed write means the connection is gone; poison it (the
		// writer already did for errors it detected — fail is idempotent)
		// so the owning Node redials on the next call.
		c.fail(err)
		// Double-wrap so a write that died on its deadline keeps the
		// deadline in its chain: Stats classifies it as a timeout (slow
		// fabric), not a transport error, while isTransient still matches.
		return 0, fmt.Errorf("%w: write: %w", errConnFailed, err)
	}
	return id, nil
}

// fillRequestHead lays down everything ahead of the bulk payload: frame
// header (bodyLen, kind, request id), session stamp, method, and the
// request header bytes.
func fillRequestHead(buf []byte, bodyLen int, id uint64, st stamp, m rpc.Method, hdr []byte) {
	binary.BigEndian.PutUint32(buf, uint32(bodyLen))
	buf[4] = kindRequest
	binary.BigEndian.PutUint64(buf[5:], id)
	off := frameHeaderSize
	binary.BigEndian.PutUint64(buf[off:], st.session)
	binary.BigEndian.PutUint64(buf[off+8:], st.seq)
	off += stampSize
	binary.BigEndian.PutUint16(buf[off:], uint16(m))
	copy(buf[off+2:], hdr)
}

// await collects the response for a request id that send registered on
// sl. A borrowing consumer (fn) gets the pooled response body, which is
// recycled before await returns; an owning consumer (own) gets the whole
// frame and, by returning nil, keeps it — the zero-copy lease path. On
// deadline the call is abandoned: the pending entry is removed so the
// read loop drops the late response, and anything that raced in is
// drained and recycled.
func (c *conn) await(m rpc.Method, id uint64, sl *callerSlot, deadline time.Time, cons consumer) error {
	timeC := sl.arm(deadline)
	select {
	case payload := <-sl.ch:
		sl.disarm(timeC)
		if payload == nil {
			c.pmu.Lock()
			err := c.dead
			c.pmu.Unlock()
			return fmt.Errorf("%w: %v", errConnFailed, err)
		}
		status, body := payload[0], payload[1:]
		if status != dmwire.StatusOK {
			err := dmwire.ErrOf(status, string(body))
			putBuf(payload)
			return err
		}
		if cons.own != nil {
			if cerr := cons.own(payload, body); cerr != nil {
				putBuf(payload)
				return cerr
			}
			return nil // frame ownership transferred to the consumer
		}
		var cerr error
		if cons.fn != nil {
			cerr = cons.fn(body)
		}
		putBuf(payload)
		return cerr
	case <-timeC:
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		sl.drain()
		return fmt.Errorf("live: call %#x timed out: %w", uint16(m), ErrDeadline)
	}
}

// Register attaches DM state to this client's session on the server,
// then starts the heartbeat; it must complete before other calls, which
// an unregistered session answers with dm.ErrBadAddress.
func (cl *Client) Register() error {
	if err := cl.register(); err != nil {
		return err
	}
	cl.startHeartbeat()
	return nil
}

// register registers the session and records its lease and shard, along
// with the server's invalidation-epoch baseline: captured BEFORE any read can
// populate a cache above this session, so the first heartbeat's epoch
// compares against registration time, not against whenever the
// heartbeat loop happened to fire first (a free landing in that gap
// must still invalidate, §D15).
func (cl *Client) register() error {
	var r dmwire.RegisterResp
	err := cl.node.callConsume(cl.addr, dmwire.MRegister, nil, nil, func(resp []byte) (err error) {
		r, err = dmwire.UnmarshalRegisterResp(resp)
		return err
	})
	if err != nil {
		return err
	}
	cl.epochSeen.Store(int64(r.Epoch))
	cl.mu.Lock()
	cl.lease = time.Duration(r.LeaseMillis) * time.Millisecond
	cl.shard = -1
	if r.HasShard {
		cl.shard = int64(r.Shard)
	}
	cl.mu.Unlock()
	return nil
}

// startHeartbeat spawns the renewal loop if the server leases sessions
// and heartbeats are enabled.
func (cl *Client) startHeartbeat() {
	if cl.cfg.HeartbeatInterval < 0 {
		return
	}
	cl.mu.Lock()
	lease := cl.lease
	cl.mu.Unlock()
	if lease <= 0 {
		return // server does not lease sessions
	}
	interval := cl.cfg.HeartbeatInterval
	if interval == 0 {
		interval = lease / 3
	}
	if interval <= 0 {
		return
	}
	cancel := make(chan struct{})
	cl.mu.Lock()
	cl.hbCancel = cancel
	cl.mu.Unlock()
	cl.hbWG.Add(1)
	go cl.heartbeatLoop(interval, cancel)
}

// heartbeatLoop keeps the session alive until Close, Reregister
// (cancel), or until the server reports the session gone (reaped), at which point
// renewing is pointless — the hbDead latch is set so SessionReaped
// observers (the pool rejoin poller) can re-register, and subsequent data
// calls surface the dead session as dm.ErrBadAddress. Renewal outcomes
// feed the consecutive failure counter behind SessionHealth and the
// OnHeartbeatFailure hook, so an expiring session is observable before
// data calls start failing.
func (cl *Client) heartbeatLoop(interval time.Duration, cancel chan struct{}) {
	defer cl.hbWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-cl.hbStop:
			return
		case <-cancel:
			return
		case <-tick.C:
			err := cl.node.CallConsumeWithin(cl.addr, dmwire.MHeartbeat, nil, nil, interval, func(resp []byte) error {
				r, err := dmwire.UnmarshalHeartbeatResp(resp)
				if err != nil {
					return err
				}
				cl.observeEpoch(r.Epoch)
				return nil
			})
			if err == nil {
				cl.hbFails.Store(0)
				continue
			}
			n := cl.hbFails.Add(1)
			cl.hbTotal.Add(1)
			if cb := cl.cfg.OnHeartbeatFailure; cb != nil {
				cb(cl.addr, int(n), err)
			}
			if errors.Is(err, dm.ErrBadAddress) {
				cl.hbDead.Store(true)
				return // session reaped; the counter stays nonzero
			}
		}
	}
}

// observeEpoch folds one heartbeat's invalidation epoch into the record
// and fires the OnEpochAdvance hook on any advance past the
// registration baseline.
func (cl *Client) observeEpoch(epoch uint64) {
	cb := cl.cfg.OnEpochAdvance
	if cb == nil {
		return
	}
	if prev := cl.epochSeen.Swap(int64(epoch)); prev >= 0 && uint64(prev) != epoch {
		cb(cl.addr, epoch)
	}
}

// SessionReaped reports whether the server declared this client's
// session gone (heartbeat answered dm.ErrBadAddress — the server
// restarted or reaped the session). A reaped session never recovers by
// itself; call Reregister to start a fresh one.
func (cl *Client) SessionReaped() bool { return cl.hbDead.Load() }

// Reregister re-establishes the session after the server reaped it
// (process restart or lease expiry): the dead heartbeat loop is stopped,
// the node mints a fresh caller session and registers it, and the
// heartbeat restarts. Every resource the old session held on the server
// is gone — callers (the pool
// rejoin poller) must treat the shard as empty and re-replicate.
func (cl *Client) Reregister() error {
	cl.mu.Lock()
	if c := cl.hbCancel; c != nil {
		close(c)
		cl.hbCancel = nil
	}
	cl.mu.Unlock()
	// Re-baseline the epoch: the fresh server may start from 0.
	cl.epochSeen.Store(-1)
	cl.node.newSession()
	if err := cl.register(); err != nil {
		return err
	}
	cl.hbFails.Store(0)
	cl.hbDead.Store(false)
	cl.startHeartbeat()
	return nil
}

// SessionHealth reports the number of consecutive failed lease renewals
// (0 = healthy). A count that keeps climbing toward TTL/interval
// heartbeats means the session will be reaped and data calls will start
// returning dm.ErrBadAddress.
func (cl *Client) SessionHealth() int { return int(cl.hbFails.Load()) }

// ServerShard returns the cluster-wide shard ID the server announced at
// registration (ServerConfig.ShardID), and whether it announced one.
// Single-server deployments that never set a shard report false.
func (cl *Client) ServerShard() (uint32, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.shard < 0 {
		return 0, false
	}
	return uint32(cl.shard), true
}

// Stats is a point-in-time snapshot of a client's call-level counters.
type Stats struct {
	// Calls counts calls started (every public op plus heartbeats).
	Calls int64
	// Retries counts extra attempts after a transient failure; a server
	// answers one with a replay if the call had already run there.
	Retries int64
	// Failures counts calls that a transient error ended: the retry
	// budget or deadline ran out.
	// Application answers (the dm sentinels, AppError statuses) are not
	// failures; they surface to the caller uncounted.
	Failures int64
	// Timeouts counts attempts that failed by exceeding a deadline
	// (overall or per-attempt) — the slow-but-alive failure class.
	// Retries lumps every transient failure; Timeouts + TransportErrors
	// splits them by cause.
	Timeouts int64
	// TransportErrors counts attempts that failed at the transport —
	// dial errors, dead/poisoned connections, failed writes — the
	// unreachable-or-crashed failure class.
	TransportErrors int64
	// HeartbeatFailures counts failed lease renewals, cumulatively
	// (SessionHealth reports the resetting consecutive count).
	HeartbeatFailures int64
	// CacheHits .. CacheCoalesced mirror the hot-ref cache's counters
	// (DESIGN.md §D15): reads served from memory, reads that went to the
	// wire, entries admitted/evicted/invalidated, and concurrent cold
	// reads coalesced behind another caller's fetch. The cache lives in
	// pool.Client, so only pool.Client.Stats fills them; a bare
	// live.Client reports zeros.
	CacheHits          int64
	CacheMisses        int64
	CacheAdmits        int64
	CacheEvictions     int64
	CacheInvalidations int64
	CacheCoalesced     int64
}

// Stats snapshots the client's cumulative call counters. Counters only
// grow; subtracting two snapshots gives the interval counts.
func (cl *Client) Stats() Stats {
	s := cl.node.ops.snapshot()
	s.HeartbeatFailures = cl.hbTotal.Load()
	return s
}

// Latency summarizes the client's per-op latency distribution
// (submission to completion, retries included; sync and async ops, in
// nanoseconds).
func (cl *Client) Latency() stats.Summary { return cl.node.Latency() }

// LatencyHistogram snapshots the client's per-op latency histogram, for
// merging across clients or custom quantiles.
func (cl *Client) LatencyHistogram() *stats.Histogram { return cl.node.LatencyHistogram() }

// Lease returns the lease duration the server granted at registration
// (0 when it does not lease sessions).
func (cl *Client) Lease() time.Duration {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.lease
}

// Alloc reserves size bytes (ralloc).
func (cl *Client) Alloc(size int64) (dm.RemoteAddr, error) {
	var addr dm.RemoteAddr
	err := cl.node.callConsume(cl.addr, dmwire.MAlloc, dmwire.AllocReq{Size: size}.Marshal(), nil,
		func(resp []byte) error {
			r, err := dmwire.UnmarshalAllocResp(resp)
			if err != nil {
				return err
			}
			addr = r.Addr
			return nil
		})
	return addr, err
}

// Free releases the region at addr (rfree).
func (cl *Client) Free(addr dm.RemoteAddr) error {
	return cl.node.callConsume(cl.addr, dmwire.MFree, dmwire.FreeReq{Addr: addr}.Marshal(), nil, nil)
}

// CreateRef shares [addr, addr+size) read-only (create_ref).
func (cl *Client) CreateRef(addr dm.RemoteAddr, size int64) (dm.Ref, error) {
	key, err := cl.callRefKey(dmwire.MCreateRef, dmwire.CreateRefReq{Addr: addr, Size: size}.Marshal(), nil)
	if err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: key, Size: size}, nil
}

// callRefKey runs a call whose successful response is a RefKeyResp.
func (cl *Client) callRefKey(m rpc.Method, hdr, payload []byte) (uint64, error) {
	var key uint64
	err := cl.node.callConsume(cl.addr, m, hdr, payload, func(resp []byte) error {
		r, err := dmwire.UnmarshalRefKeyResp(resp)
		if err != nil {
			return err
		}
		key = r.Key
		return nil
	})
	return key, err
}

// MapRef maps a ref into this process's DM address space (map_ref).
func (cl *Client) MapRef(ref dm.Ref) (dm.RemoteAddr, error) {
	var addr dm.RemoteAddr
	err := cl.node.callConsume(cl.addr, dmwire.MMapRef, dmwire.MapRefReq{Key: ref.Key}.Marshal(), nil,
		func(resp []byte) error {
			r, err := dmwire.UnmarshalMapRefResp(resp)
			if err != nil {
				return err
			}
			addr = r.Addr
			return nil
		})
	return addr, err
}

// FreeRef drops the ref's own page hold.
func (cl *Client) FreeRef(ref dm.Ref) error {
	var hb [8]byte
	return cl.node.callConsume(cl.addr, dmwire.MFreeRef, dmwire.FreeRefReq{Key: ref.Key}.Append(hb[:0]), nil, nil)
}

// AdoptRef moves ref to this session in one exchange (adopt_ref): the
// server retires ref's key and republishes the same frames under a new
// key owned by this session, which it returns in the ref. newKey 0
// lets the server mint the key; otherwise it must carry
// dmwire.ReplicaKeyBit, and non-empty replicas record its epoch-1
// directory entry with the move. The old key is dead afterwards.
func (cl *Client) AdoptRef(ref dm.Ref, newKey uint64, replicas []uint32) (dm.Ref, error) {
	var hb [reqHdrMax]byte
	key, err := cl.callRefKey(dmwire.MAdoptRef, dmwire.AdoptRefReq{Key: ref.Key, NewKey: newKey, Replicas: replicas}.Append(hb[:0]), nil)
	if err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: key, Size: ref.Size}, nil
}

// checkWireRange validates that off and size fit the protocol's u32
// fields before they are narrowed — the failure mode it prevents is a
// silently truncated offset or length corrupting the request into a
// well-formed read/write of the wrong range. The error wraps
// dm.ErrOutOfRange so callers can errors.Is it like any server-side
// range violation.
func checkWireRange(op string, off, size int64) error {
	if off < 0 || off > maxWireU32 || size < 0 || size > maxWireU32 {
		return fmt.Errorf("live: %s off=%d len=%d exceeds wire range: %w", op, off, size, dm.ErrOutOfRange)
	}
	return nil
}

const maxWireU32 = int64(^uint32(0))

// Write stores src at addr (rwrite). The payload is written to the socket
// straight from src — no marshal copy.
func (cl *Client) Write(addr dm.RemoteAddr, src []byte) error {
	if err := checkWireRange("write", 0, int64(len(src))); err != nil {
		return err
	}
	return cl.node.callConsume(cl.addr, dmwire.MWrite, dmwire.WriteReq{Addr: addr}.MarshalHdr(), src, nil)
}

// Read loads len(dst) bytes from addr (rread): readLease plus the one
// copy, pooled response frame to dst.
func (cl *Client) Read(addr dm.RemoteAddr, dst []byte) error {
	b, err := cl.readLease(addr, int64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, b.Bytes())
	b.Release()
	return nil
}

// readLease loads size bytes from addr and leases the caller the pooled
// response frame itself as a Buf. The caller must Release it exactly
// once; the bytes are invalid after.
func (cl *Client) readLease(addr dm.RemoteAddr, size int64) (*Buf, error) {
	if err := checkWireRange("read", 0, size); err != nil {
		return nil, err
	}
	return cl.callLease(dmwire.MRead, dmwire.ReadReq{Addr: addr, Size: uint32(size)}.Marshal(), size)
}

// callLease runs a read whose response body must be exactly size bytes
// and keeps the pooled frame it arrived in as a leased Buf. On any error
// (including a failed or timed-out call) no Buf is leased and the
// transport recycles the frame itself.
func (cl *Client) callLease(m rpc.Method, hdr []byte, size int64) (*Buf, error) {
	var out *Buf
	err := cl.node.callConsumer(cl.addr, m, hdr, nil,
		consumer{own: func(frame, body []byte) error {
			if int64(len(body)) != size {
				return fmt.Errorf("live: read %#x returned %d bytes, want %d", uint16(m), len(body), size)
			}
			out = newLeasedBuf(frame, body)
			return nil
		}}, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StageRef stages data into fresh pages in one round trip; data rides the
// socket directly (no marshal copy).
func (cl *Client) StageRef(data []byte) (dm.Ref, error) {
	key, err := cl.callRefKey(dmwire.MStage, nil, data)
	if err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: key, Size: int64(len(data))}, nil
}

// StageRefAt stages data under a caller-chosen key (MStageAt): the
// replica-placement primitive behind the pool's R-way replication. The
// key must carry dmwire.ReplicaKeyBit; a key the server already holds
// fails with dm.ErrRefExists, which makes repair re-stages idempotent.
// It records no directory entry: it is the repair and migration copy,
// whose placement the executor's flip publishes (StageRefAtAsync carries
// a first stage's entry).
func (cl *Client) StageRefAt(key uint64, data []byte) (dm.Ref, error) {
	var hb [16]byte
	if _, err := cl.callRefKey(dmwire.MStageAt, dmwire.StageAtReq{Key: key}.AppendHdr(hb[:0]), data); err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Key: key, Size: int64(len(data))}, nil
}

// RegPut merges a cluster ref's directory entry into the server's
// registry slice (DESIGN.md §D16): a migration placement flip or a
// partial-placement correction (bumped epoch; the first stage's epoch-1
// entry rides stage_at). The server merges higher-epoch-wins, so retries
// and races are idempotent.
func (cl *Client) RegPut(ent registry.Entry) error {
	return cl.node.callConsume(cl.addr, dmwire.MRegPut, dmwire.RegPutReq{Entry: ent}.Marshal(), nil, nil)
}

// RegGet queries the server's directory slice for one key; dm.ErrBadRef
// when it holds no entry.
func (cl *Client) RegGet(key uint64) (registry.Entry, error) {
	var ent registry.Entry
	err := cl.node.callConsume(cl.addr, dmwire.MRegGet,
		dmwire.RegGetReq{Key: key}.Marshal(), nil,
		func(resp []byte) error {
			r, err := dmwire.UnmarshalRegGetResp(resp)
			if err != nil {
				return err
			}
			ent = r.Entry
			return nil
		})
	return ent, err
}

// RegSync pulls one anti-entropy page of the server's directory: up to
// limit entries with keys strictly after afterKey, ascending. A short
// page ends the scan.
func (cl *Client) RegSync(afterKey uint64, limit int) ([]registry.Entry, error) {
	if limit <= 0 || limit > dmwire.MaxRegSyncEntries {
		limit = dmwire.MaxRegSyncEntries
	}
	var ents []registry.Entry
	err := cl.node.callConsume(cl.addr, dmwire.MRegSync,
		dmwire.RegSyncReq{AfterKey: afterKey, Limit: uint32(limit)}.Marshal(), nil,
		func(resp []byte) error {
			r, err := dmwire.UnmarshalRegSyncResp(resp)
			if err != nil {
				return err
			}
			ents = r.Entries
			return nil
		})
	return ents, err
}

// ReadRef reads the ref's snapshot without mapping it: ReadRefLease plus
// the one copy, pooled response frame to dst.
func (cl *Client) ReadRef(ref dm.Ref, off int64, dst []byte) error {
	b, err := cl.ReadRefLease(ref, off, int64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, b.Bytes())
	b.Release()
	return nil
}

// ReadRefLease is the by-ref read primitive (DESIGN.md §D12): the pooled
// frame the response arrived in is leased to the caller as a Buf whose
// Bytes are the read payload. The caller must Release it exactly once —
// the bytes recycle into the transport's frame pool and are invalid
// after.
func (cl *Client) ReadRefLease(ref dm.Ref, off, size int64) (*Buf, error) {
	if err := checkWireRange("readref", off, size); err != nil {
		return nil, err
	}
	var hb [16]byte
	return cl.callLease(dmwire.MReadRef, dmwire.ReadRefReq{Key: ref.Key, Off: uint32(off), Size: uint32(size)}.Append(hb[:0]), size)
}

// ConsumeRefLease reads the whole ref as a leased Buf and frees it in the
// same exchange (consume_ref): the last reader's fetch and free fused.
// The caller must Release the Buf exactly once.
func (cl *Client) ConsumeRefLease(ref dm.Ref) (*Buf, error) {
	if err := checkWireRange("consumeref", 0, ref.Size); err != nil {
		return nil, err
	}
	var hb [16]byte
	return cl.callLease(dmwire.MConsumeRef, dmwire.ReadRefReq{Key: ref.Key, Size: uint32(ref.Size)}.Append(hb[:0]), ref.Size)
}
