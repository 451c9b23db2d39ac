// Package live is a real-network implementation of the DmRPC-net
// disaggregated memory protocol (internal/dmwire) over TCP: a DM server
// holding a pinned page pool with page-granular copy-on-write, and a
// client exposing the paper's Table II API (ralloc/rfree/create_ref/
// map_ref/rread/rwrite) plus the fused stage/read-by-ref fast paths.
//
// It exists so the library is usable outside the simulator: the simulated
// backend (internal/dmnet) validates the paper's performance claims under
// a calibrated cost model, while this package provides the same semantics
// on real sockets. Both speak the identical wire protocol, enforced by
// shared codecs and by cross-checked tests.
//
// Concurrency model (DESIGN.md §4 D7): no global lock. Metadata is
// striped — per-session VA allocators reached through the caller's
// session, a sharded (owner, vpage) translator map, sharded ref tables —
// and per-frame refcounts are atomics. Bulk pool copies run outside exclusive locks,
// made safe by pinning frames (a transient refcount hold) so a frame
// being copied can never be reclaimed and reused mid-copy. The fused
// MStage/MReadRef fast paths touch no allocator lock at all.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/registry"
	"repro/internal/rpc"
)

// Frame layout: length-prefixed messages on a TCP stream.
//
//	u32 payloadLen | u8 kind | u64 reqID | payload
//	request payload:   u64 session | u64 seq | u16 method | body
//	response payload:  u8 status | body
//
// Every request carries its caller's session stamp, which the serving
// node uses to run it at most once across retries (session.go, DESIGN.md
// §D8).
const (
	frameHeaderSize = 4 + 1 + 8
	kindRequest     = 1
	kindResponse    = 2
)

// DefaultMaxFrameSize is the default cap on one frame's bulk payload
// (guards against corrupt or hostile length prefixes). Tunable per
// endpoint via NodeConfig.MaxFrameSize / ServerConfig.MaxFrameSize. The
// frame reader grants frameOverhead on top, so a cap of N admits an
// N-byte DM transfer despite the stamp/method/status/codec bytes riding
// in the same frame.
const DefaultMaxFrameSize = 16 << 20

// frameOverhead is the fixed allowance added to the frame-size cap for
// protocol bytes: session stamp (16), method (2) or status (1), and the
// largest fixed-size codec header.
const frameOverhead = 128

// errFrameTooLarge reports a corrupt or hostile length prefix.
var errFrameTooLarge = errors.New("live: frame exceeds maximum message size")

// writeFrame writes one frame; the caller serializes writers per conn.
func writeFrame(w io.Writer, kind byte, reqID uint64, payload []byte) error {
	hdr := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	hdr[4] = kind
	binary.BigEndian.PutUint64(hdr[5:], reqID)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into a freshly allocated payload (slow path,
// retained for the fuzz harness; hot paths use readFrameBuf). max caps
// the payload length and is checked before any allocation.
func readFrame(r io.Reader, max uint32) (kind byte, reqID uint64, payload []byte, err error) {
	hdr := make([]byte, frameHeaderSize)
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if uint64(n) > uint64(max)+frameOverhead {
		return 0, 0, nil, errFrameTooLarge
	}
	kind = hdr[4]
	reqID = binary.BigEndian.Uint64(hdr[5:])
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, reqID, payload, nil
}

// readFrameBuf reads one frame into a pooled payload buffer. Ownership of
// the returned payload passes to the caller, who must putBuf it after the
// last use (see bufpool.go for the ownership rules). max caps the payload
// length and is checked before any allocation.
func readFrameBuf(r io.Reader, hdr []byte, max uint32) (kind byte, reqID uint64, payload []byte, err error) {
	hdr = hdr[:frameHeaderSize]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if uint64(n) > uint64(max)+frameOverhead {
		return 0, 0, nil, errFrameTooLarge
	}
	kind = hdr[4]
	reqID = binary.BigEndian.Uint64(hdr[5:])
	payload = getBuf(int(n))
	if _, err = io.ReadFull(r, payload); err != nil {
		putBuf(payload)
		return 0, 0, nil, err
	}
	return kind, reqID, payload, nil
}

// ServerConfig sizes a live DM server and tunes its failure behaviour.
type ServerConfig struct {
	// NumPages is the pinned pool size in pages.
	NumPages int
	// PageSize is the page granularity in bytes.
	PageSize int
	// LeaseTTL is how long a registered caller session lives with no
	// request. Every request renews it, and an idle client's heartbeat
	// keeps it alive. A session that sends nothing for longer is presumed
	// dead and reaped: its VA regions, translator mappings, and created
	// refs are reclaimed (frames still held by other sessions' mappings
	// survive via their refcounts). The sweep that finds it runs every
	// TTL/4. 0 disables leasing — registered sessions live until Close.
	LeaseTTL time.Duration
	// DrainTimeout bounds the graceful phase of Close: accepting stops
	// immediately, in-flight connections get this long to finish, then
	// stragglers are cut. 0 cuts immediately.
	DrainTimeout time.Duration
	// MaxFrameSize caps one request frame's payload (0 = 16 MiB default).
	MaxFrameSize uint32
	// HasShard / ShardID announce this server's cluster-wide shard identity
	// in every register response, so pool clients can verify that the server
	// they dialed is the shard their ring expects. Unset (the zero value)
	// preserves the single-server wire form.
	HasShard bool
	ShardID  uint32
}

// DefaultServerConfig returns a 256 MiB pool of 4 KiB pages with a 15 s
// session lease and a 1 s drain on Close.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		NumPages:     1 << 16,
		PageSize:     4096,
		LeaseTTL:     15 * time.Second,
		DrainTimeout: time.Second,
	}
}

// Validate reports a configuration error, if any.
func (c ServerConfig) Validate() error {
	if c.NumPages <= 0 || c.PageSize <= 0 {
		return fmt.Errorf("live: NumPages and PageSize must be positive")
	}
	return nil
}

// Stripe counts. Powers of two so the index is a mask. Sized for tens of
// concurrent clients: contention on a shard requires two clients to touch
// the same (owner, vpage) hash bucket at the same instant.
const (
	transShardCount = 64
	refShardCount   = 16
)

// transShard is one stripe of the (owner, vpage) -> frame translator.
type transShard struct {
	mu sync.RWMutex
	m  map[transKey]int32
}

// refShard is one stripe of the ref-key table.
type refShard struct {
	mu sync.RWMutex
	m  map[uint64]*refEntry
}

// dmSession is the DM state register attaches to a caller's session:
// its VA allocator, and the owner number its translator entries and refs
// are keyed by, minted at register and never sent on the wire. Its lock
// is the outermost level of the hierarchy: VA mutations (Alloc/Free)
// take it exclusively, while VA-range-dependent data ops
// (rread/rwrite/create_ref) hold it shared for their whole duration so a
// racing rfree cannot strand translator entries for a region that no
// longer exists.
//
// A reap takes mu exclusively and sets gone before reclaiming anything —
// so every op that acquires mu (shared or exclusive) checks gone first
// and bails with dm.ErrBadAddress, guaranteeing no op publishes new state
// for a session being torn down.
type dmSession struct {
	owner uint32
	mu    sync.RWMutex
	va    *dm.VAAllocator
	gone  bool // set (under mu) when the session is reaped
}

// Server is a live DM server: the paper's page manager and address
// translator over real memory and TCP, striped for multi-client
// parallelism.
type Server struct {
	cfg  ServerConfig
	pool []byte
	// refcnt is the per-frame reference count: one per translator mapping,
	// one per ref hold, plus transient pins taken around bulk copies.
	// Dropping it to zero reclaims the frame onto the free list.
	refcnt []atomic.Int32

	freeMu sync.Mutex
	free   frameStack

	nextOwner atomic.Uint32

	trans   [transShardCount]transShard
	refs    [refShardCount]refShard
	nextKey atomic.Uint64
	// stagePuts counts successful MStageAt operations (replica placements
	// and repair traffic landing on this shard; dmserverd -stats).
	stagePuts atomic.Int64
	// epoch is the cache-invalidation epoch (DESIGN.md §D15): bumped on
	// any operation that could make a previously read ref payload stale
	// — FreeRef, a write (CoW makes refs immutable, but the bump keeps
	// the contract conservative), or a session reap sweeping refs — and
	// piggybacked on every heartbeat so clients drop cached payloads
	// within one heartbeat of the change.
	epoch atomic.Uint64
	// reg is this shard's slice of the cluster ref directory (DESIGN.md
	// §D16): cluster-keyed refs handed off by their staging clients (the
	// entry rides MStageAt) so placement survives the producer's session
	// reap, merged higher-epoch-wins via MRegPut/MRegSync. A ref with a
	// directory entry is registry-owned: a reap skips it (only an
	// explicit free_ref — which also drops the entry — or a migration
	// reclaim releases its pages).
	reg *registry.Registry

	node      *Node
	closeOnce sync.Once
	closeErr  error
}

type transKey struct {
	owner uint32
	vpage uint64
}

type refEntry struct {
	frames []int32 // immutable after publication
	size   int64
	owner  uint32 // the owning session's number, so its reap reclaims the ref
}

// transShardOf picks the translator stripe for a key.
func (s *Server) transShardOf(key transKey) *transShard {
	h := (uint64(key.owner)<<32 ^ key.vpage) * 0x9E3779B97F4A7C15
	return &s.trans[h>>(64-6)] // top 6 bits: transShardCount == 64
}

// refShardOf picks the ref-table stripe for a key.
func (s *Server) refShardOf(key uint64) *refShard {
	return &s.refs[key&(refShardCount-1)]
}

// NewServer builds a server with an allocated (and thereby "pinned") pool.
func NewServer(cfg ServerConfig) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Server{
		cfg:    cfg,
		pool:   make([]byte, cfg.NumPages*cfg.PageSize),
		refcnt: make([]atomic.Int32, cfg.NumPages),
		free:   frameStack{frames: make([]int32, cfg.NumPages), n: cfg.NumPages},
		node:   NewNodeWith(NodeConfig{MaxFrameSize: cfg.MaxFrameSize}),
		reg:    registry.New(),
	}
	for i := range s.free.frames {
		s.free.frames[i] = int32(i)
	}
	for i := range s.trans {
		s.trans[i].m = make(map[transKey]int32)
	}
	for i := range s.refs {
		s.refs[i].m = make(map[uint64]*refEntry)
	}
	for _, m := range []rpc.Method{
		dmwire.MRegister, dmwire.MAlloc, dmwire.MFree, dmwire.MCreateRef,
		dmwire.MMapRef, dmwire.MFreeRef, dmwire.MRead, dmwire.MWrite,
		dmwire.MStage, dmwire.MReadRef, dmwire.MHeartbeat, dmwire.MStageAt,
		dmwire.MRegPut, dmwire.MRegGet, dmwire.MRegSync, dmwire.MConsumeRef,
		dmwire.MAdoptRef,
	} {
		m := m
		// DM operations are short and never block on other RPCs, so they
		// run to completion on the connection's read loop (eRPC-style)
		// instead of paying a goroutine spawn per request.
		s.node.register(m, handlerEntry{fast: true, h: func(sess *serverSession, _ net.Addr, body []byte) ([]byte, error) {
			return s.handle(sess, m, body)
		}})
	}
	s.node.sessions.lease = cfg.LeaseTTL
	s.node.sessions.reap = func(d *dmSession) { s.reap(d, false) }
	if cfg.LeaseTTL > 0 {
		s.node.conns.Add(1) // Shutdown waits for the sweeper like a connection
		go s.sweeper()
	}
	return s
}

// sweeper runs the session sweep every TTL/4 until the node closes.
func (s *Server) sweeper() {
	defer s.node.conns.Done()
	t := time.NewTicker(max(s.cfg.LeaseTTL/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.node.closed:
			return
		case now := <-t.C:
			s.node.sessions.sweep(now)
		}
	}
}

// Serve accepts connections on ln until Close. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error { return s.node.Serve(ln) }

// Close gracefully drains the server: it stops accepting immediately,
// gives in-flight connections DrainTimeout to finish, cuts stragglers,
// stops the sweeper, and finally force-reaps every remaining session so
// the pool returns to a fully-free state. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.node.Shutdown(s.cfg.DrainTimeout)
		// Every handler and the sweeper have finished (Shutdown waits for
		// them), so the force-reap below races nothing.
		t := &s.node.sessions
		t.mu.Lock()
		var live []*dmSession
		for _, sess := range t.m {
			if d := sess.dm.Load(); d != nil {
				live = append(live, d)
			}
		}
		t.mu.Unlock()
		for _, d := range live {
			s.reap(d, true)
		}
	})
	return s.closeErr
}

// reap tears down one session's DM state. Setting gone under the
// exclusive lock fences all in-flight ops: anything acquiring d.mu
// afterwards observes it and bails, so nothing publishes new state for
// the session once the sweeps below begin. Frames the session shared
// with the living survive: reaping only drops its own holds, and
// per-frame refcounts keep any page still mapped or ref'd by another
// session alive (invariant D6 conservation holds across a reap).
func (s *Server) reap(d *dmSession, force bool) {
	d.mu.Lock()
	if d.gone {
		d.mu.Unlock()
		return
	}
	d.gone = true
	d.mu.Unlock()

	// Drop the dead session's translator mappings. decRef reclaims frames
	// nobody else holds; shared frames (other sessions' refs or mappings)
	// live on.
	for i := range s.trans {
		sh := &s.trans[i]
		var frames []int32
		sh.mu.Lock()
		for key, f := range sh.m {
			if key.owner == d.owner {
				delete(sh.m, key)
				frames = append(frames, f)
			}
		}
		sh.mu.Unlock()
		s.releaseFrames(frames)
	}

	// Drop the refs the dead session owns. Another session that mapped
	// one of these refs keeps its pages: map_ref took per-frame holds of
	// its own, so only the ref entry's holds are released here. Refs whose
	// key the shard's directory holds are registry-owned (DESIGN.md
	// §D16): the staging client handed placement off to the cluster, so
	// they survive their producer's reap and are released only by an
	// explicit free_ref or a migration reclaim. A forced reap (server
	// shutdown) sweeps everything — the handoff outlives sessions, not
	// the server.
	swept := 0
	for i := range s.refs {
		sh := &s.refs[i]
		var orphaned []*refEntry
		sh.mu.Lock()
		for key, ref := range sh.m {
			if ref.owner == d.owner {
				if !force {
					if _, held := s.reg.Get(key); held {
						continue
					}
				}
				delete(sh.m, key)
				orphaned = append(orphaned, ref)
			}
		}
		sh.mu.Unlock()
		for _, ref := range orphaned {
			s.releaseFrames(ref.frames)
		}
		swept += len(orphaned)
	}
	if swept > 0 {
		// Reaped refs vanished without an explicit FreeRef; advance the
		// invalidation epoch so surviving sessions drop any cached
		// payloads for them (DESIGN.md §D15).
		s.epoch.Add(1)
	}
}

// FreePages returns the number of free frames (tests, monitoring).
func (s *Server) FreePages() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return s.free.n
}

// WriteStats snapshots the server's wire-write counters (frames, bytes,
// drops) aggregated across its connections.
func (s *Server) WriteStats() WriteStats { return s.node.WriteStats() }

// LiveRefs returns the number of outstanding refs.
func (s *Server) LiveRefs() int {
	n := 0
	for i := range s.refs {
		sh := &s.refs[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// methodOf converts a raw wire value to an rpc.Method (fuzzing hook).
func methodOf(m uint16) rpc.Method { return rpc.Method(m) }

// dispatch runs one DM operation on sess and returns (status, response
// body); kept as a direct entry point for fuzzing the page manager.
func (s *Server) dispatch(sess *serverSession, m rpc.Method, body []byte) (byte, []byte) {
	resp, err := s.handle(sess, m, body)
	if err != nil {
		return dmwire.StatusOf(err), []byte(err.Error())
	}
	return dmwire.StatusOK, resp
}

// handle runs one DM operation for the caller session sess. Every op
// but register needs the DM state register attached: a session that
// never registered, or a reaped one whose stamp comes back, gets
// dm.ErrBadAddress and runs nothing.
func (s *Server) handle(sess *serverSession, m rpc.Method, body []byte) ([]byte, error) {
	if m == dmwire.MRegister {
		return s.register(sess)
	}
	d := sess.dm.Load()
	if d == nil {
		return nil, dm.ErrBadAddress
	}
	switch m {
	case dmwire.MAlloc:
		return s.alloc(d, body)
	case dmwire.MFree:
		return s.freeRegion(d, body)
	case dmwire.MCreateRef:
		return s.createRef(d, body)
	case dmwire.MMapRef:
		return s.mapRef(d, body)
	case dmwire.MFreeRef:
		return s.freeRef(body)
	case dmwire.MRead:
		return s.read(d, body)
	case dmwire.MWrite:
		return s.write(d, body)
	case dmwire.MStage:
		return s.stage(d, body)
	case dmwire.MStageAt:
		return s.stageAt(d, body)
	case dmwire.MReadRef:
		return s.readRef(body)
	case dmwire.MConsumeRef:
		return s.consumeRef(body)
	case dmwire.MAdoptRef:
		return s.adoptRef(d, body)
	case dmwire.MHeartbeat:
		return dmwire.HeartbeatResp{Epoch: s.epoch.Load()}.Marshal(), nil
	case dmwire.MRegPut:
		return s.regPut(body)
	case dmwire.MRegGet:
		return s.regGet(body)
	case dmwire.MRegSync:
		return s.regSync(body)
	default:
		return nil, errNoSuchMethod
	}
}

func (s *Server) pageSize() int64 { return int64(s.cfg.PageSize) }

func (s *Server) frame(f int32) []byte {
	off := int(f) * s.cfg.PageSize
	return s.pool[off : off+s.cfg.PageSize : off+s.cfg.PageSize]
}

// popFrame takes one frame off the free stack.
func (s *Server) popFrame() (int32, bool) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if s.free.n == 0 {
		return -1, false
	}
	var f [1]int32
	s.free.take(f[:])
	return f[0], true
}

// popFrames takes n frames in one lock acquisition, or none at all.
func (s *Server) popFrames(n int) []int32 {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if s.free.n < n {
		return nil
	}
	out := make([]int32, n)
	s.free.take(out)
	return out
}

// pushFrames returns frames to the free stack.
func (s *Server) pushFrames(frames ...int32) {
	s.freeMu.Lock()
	s.free.put(frames)
	s.freeMu.Unlock()
}

// frameStack is the free-frame stack: take pops the most recently freed
// frames, so a stage that follows a free writes into frames still warm in
// cache rather than ones freed a whole pool ago, and a run touches only
// its working set of the pool. Its array has room for every frame, so
// taking and freeing frames never allocates.
type frameStack struct {
	frames []int32
	n      int
}

// take pops the top len(out) frames into out, in the order they were
// pushed; the caller has checked that there are that many.
func (q *frameStack) take(out []int32) {
	q.n -= len(out)
	copy(out, q.frames[q.n:q.n+len(out)])
}

// put pushes frames. The array holds every frame, so only a frame freed
// twice can overflow it.
func (q *frameStack) put(frames []int32) {
	if q.n+len(frames) > len(q.frames) {
		panic("live: free-frame stack overflow: a frame was freed twice")
	}
	q.n += copy(q.frames[q.n:], frames)
}

// pin takes a transient hold on f so it cannot be reclaimed (and its
// storage reused) while a bulk copy is in flight. Release with decRef.
func (s *Server) pin(f int32) { s.refcnt[f].Add(1) }

// decRef drops one reference and reclaims the frame at zero.
func (s *Server) decRef(f int32) {
	n := s.refcnt[f].Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("live: frame %d refcount negative", f))
	}
	if n == 0 {
		s.pushFrames(f)
	}
}

// fillFrames takes frames for data off the free list and copies data
// into them, zero-filling the last frame's tail; each frame leaves with
// one reference. The frames are invisible to every other request until
// the caller publishes them, so the copy needs no lock at all.
func (s *Server) fillFrames(data []byte) ([]int32, error) {
	frames := s.popFrames(dm.PageCount(int64(len(data)), s.cfg.PageSize))
	if frames == nil {
		return nil, dm.ErrOutOfMemory
	}
	for i, f := range frames {
		fr := s.frame(f)
		n := copy(fr, data[i*s.cfg.PageSize:])
		clear(fr[n:])
		s.refcnt[f].Store(1)
	}
	return frames, nil
}

// releaseFrames drops one reference on each of frames.
func (s *Server) releaseFrames(frames []int32) {
	for _, f := range frames {
		s.decRef(f)
	}
}

// --- operations ---

// register attaches DM state to the caller's session, once: a second
// register on the session answers the same way and keeps its state. A
// session the sweep already dropped gets dm.ErrBadAddress.
func (s *Server) register(sess *serverSession) ([]byte, error) {
	sess.mu.Lock()
	d := sess.dm.Load()
	if d == nil && !sess.gone.Load() {
		d = &dmSession{owner: s.nextOwner.Add(1), va: dm.NewVAAllocator(s.cfg.PageSize, 1<<16, 1<<40)}
		sess.dm.Store(d)
	}
	sess.mu.Unlock()
	if d == nil {
		return nil, dm.ErrBadAddress
	}
	return dmwire.RegisterResp{
		LeaseMillis: uint32(s.cfg.LeaseTTL / time.Millisecond),
		HasShard:    s.cfg.HasShard,
		Shard:       s.cfg.ShardID,
		// The invalidation-epoch baseline (§D15): anything the client
		// caches from now on is covered by epoch advances piggybacked on
		// its heartbeats.
		Epoch: s.epoch.Load(),
	}.Marshal(), nil
}

// Epoch returns the current cache-invalidation epoch (0 until the
// first free/write/reap).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

func (s *Server) alloc(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalAllocReq(body)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.gone {
		d.mu.Unlock()
		return nil, dm.ErrBadAddress
	}
	addr, err := d.va.Alloc(req.Size)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return dmwire.AllocResp{Addr: addr}.Marshal(), nil
}

func (s *Server) freeRegion(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalFreeReq(body)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gone {
		return nil, dm.ErrBadAddress
	}
	size, err := d.va.Free(req.Addr)
	if err != nil {
		return nil, err
	}
	pages := dm.PageCount(size, s.cfg.PageSize)
	if pages == 0 {
		pages = 1
	}
	base := uint64(req.Addr) / uint64(s.pageSize())
	for i := 0; i < pages; i++ {
		key := transKey{owner: d.owner, vpage: base + uint64(i)}
		sh := s.transShardOf(key)
		sh.mu.Lock()
		f, ok := sh.m[key]
		if ok {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
		if ok {
			s.decRef(f)
		}
	}
	return nil, nil
}

// materialize backs key with a zeroed frame on first touch and returns it
// with a transient pin, so the caller may copy into/out of it after the
// shard lock is gone.
func (s *Server) materialize(key transKey) (int32, error) {
	sh := s.transShardOf(key)
	sh.mu.Lock()
	if f, ok := sh.m[key]; ok {
		s.pin(f)
		sh.mu.Unlock()
		return f, nil
	}
	f, ok := s.popFrame()
	if !ok {
		sh.mu.Unlock()
		return -1, dm.ErrOutOfMemory
	}
	clear(s.frame(f))
	s.refcnt[f].Store(2) // the mapping's hold + the caller's pin
	sh.m[key] = f
	sh.mu.Unlock()
	return f, nil
}

func (s *Server) checkRange(d *dmSession, addr dm.RemoteAddr, size int64) error {
	base, regSize, err := d.va.Lookup(addr)
	if err != nil {
		return err
	}
	extent := int64(dm.PageCount(regSize, s.cfg.PageSize)) * s.pageSize()
	if extent == 0 {
		extent = s.pageSize()
	}
	if int64(addr)-int64(base)+size > extent {
		return dm.ErrOutOfRange
	}
	return nil
}

func (s *Server) createRef(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalCreateRefReq(body)
	if err != nil {
		return nil, err
	}
	if req.Size <= 0 {
		return nil, dm.ErrOutOfRange
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.gone {
		return nil, dm.ErrBadAddress
	}
	if err := s.checkRange(d, req.Addr, req.Size); err != nil {
		return nil, err
	}
	basePage := uint64(req.Addr) / uint64(s.pageSize())
	pages := dm.PageCount(int64(uint64(req.Addr)%uint64(s.pageSize()))+req.Size, s.cfg.PageSize)
	frames := make([]int32, 0, pages)
	for i := 0; i < pages; i++ {
		f, err := s.materialize(transKey{owner: d.owner, vpage: basePage + uint64(i)})
		if err != nil {
			// Roll back the holds taken for earlier pages so a partial
			// create_ref cannot leak refcounts.
			s.releaseFrames(frames)
			return nil, err
		}
		// materialize's pin becomes the ref's own hold (CoW protection).
		frames = append(frames, f)
	}
	key := s.nextKey.Add(1) - 1
	sh := s.refShardOf(key)
	sh.mu.Lock()
	sh.m[key] = &refEntry{frames: frames, size: req.Size, owner: d.owner}
	sh.mu.Unlock()
	return refKeyResp(key), nil
}

func (s *Server) mapRef(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalMapRefReq(body)
	if err != nil {
		return nil, err
	}
	rsh := s.refShardOf(req.Key)
	rsh.mu.RLock()
	ref, ok := rsh.m[req.Key]
	if !ok {
		rsh.mu.RUnlock()
		return nil, dm.ErrBadRef
	}
	// Take the new mapping's holds while the ref entry still pins its
	// frames; after RUnlock a concurrent free_ref can no longer reclaim
	// them out from under us.
	for _, f := range ref.frames {
		s.pin(f)
	}
	frames, size := ref.frames, ref.size
	rsh.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gone {
		// The mapping holds taken above roll back; the ref itself (if it
		// belonged to another live session) is untouched.
		s.releaseFrames(frames)
		return nil, dm.ErrBadAddress
	}
	addr, err := d.va.Alloc(size)
	if err != nil {
		s.releaseFrames(frames)
		return nil, err
	}
	basePage := uint64(addr) / uint64(s.pageSize())
	for i, f := range frames {
		key := transKey{owner: d.owner, vpage: basePage + uint64(i)}
		sh := s.transShardOf(key)
		sh.mu.Lock()
		sh.m[key] = f
		sh.mu.Unlock()
	}
	return dmwire.MapRefResp{Addr: addr, Size: size}.Marshal(), nil
}

func (s *Server) freeRef(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalFreeRefReq(body)
	if err != nil {
		return nil, err
	}
	sh := s.refShardOf(req.Key)
	sh.mu.Lock()
	ref, ok := sh.m[req.Key]
	if ok {
		delete(sh.m, req.Key)
	}
	sh.mu.Unlock()
	// An explicit free also retires the key's directory entry — free_ref
	// is the directory-delete op; there is no separate RegDelete on the
	// wire. This runs even when the payload is absent, so the pool can
	// scrub a stale entry off a shard that no longer holds a copy.
	s.retireDirEntry(req.Key)
	if !ok {
		return nil, dm.ErrBadRef
	}
	s.releaseFrames(ref.frames)
	s.epoch.Add(1)
	return nil, nil
}

// retireDirEntry deletes a replica key's directory entry with a
// tombstone, so a stale anti-entropy page cannot resurrect it.
func (s *Server) retireDirEntry(key uint64) {
	if key&dmwire.ReplicaKeyBit != 0 {
		if ent, held := s.reg.Get(key); held {
			s.reg.Delete(key, ent.Epoch)
		}
	}
}

// lookupPage returns the frame backing key with a transient pin, or false
// if the page was never materialized.
func (s *Server) lookupPage(key transKey) (int32, bool) {
	sh := s.transShardOf(key)
	sh.mu.RLock()
	f, ok := sh.m[key]
	if ok {
		s.pin(f)
	}
	sh.mu.RUnlock()
	return f, ok
}

func (s *Server) read(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalReadReq(body)
	if err != nil {
		return nil, err
	}
	size := int64(req.Size)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.gone {
		return nil, dm.ErrBadAddress
	}
	if err := s.checkRange(d, req.Addr, size); err != nil {
		return nil, err
	}
	// Response body from the frame pool; the serve loop recycles it after
	// the response hits the socket.
	out := getBuf(int(size))
	off := int64(0)
	for off < size {
		vpage := (uint64(req.Addr) + uint64(off)) / uint64(s.pageSize())
		pageOff := (int64(req.Addr) + off) % s.pageSize()
		n := s.pageSize() - pageOff
		if n > size-off {
			n = size - off
		}
		if f, ok := s.lookupPage(transKey{owner: d.owner, vpage: vpage}); ok {
			copy(out[off:off+n], s.frame(f)[pageOff:])
			s.decRef(f)
		} else {
			// Unmaterialized pages read as zeros; the pooled buffer may
			// hold stale bytes, so zero explicitly.
			clear(out[off : off+n])
		}
		off += n
	}
	return out, nil
}

func (s *Server) write(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalWriteReq(body)
	if err != nil {
		return nil, err
	}
	size := int64(len(req.Data))
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.gone {
		return nil, dm.ErrBadAddress
	}
	if err := s.checkRange(d, req.Addr, size); err != nil {
		return nil, err
	}
	off := int64(0)
	for off < size {
		vpage := (uint64(req.Addr) + uint64(off)) / uint64(s.pageSize())
		pageOff := (int64(req.Addr) + off) % s.pageSize()
		n := s.pageSize() - pageOff
		if n > size-off {
			n = size - off
		}
		f, err := s.writableFrame(transKey{owner: d.owner, vpage: vpage})
		if err != nil {
			return nil, err
		}
		// The payload copy runs outside the shard lock: the pin from
		// writableFrame keeps f alive, and a frame writable in place
		// (refcount 1 + pin) is reachable only through this mapping.
		copy(s.frame(f)[pageOff:], req.Data[off:off+n])
		s.decRef(f)
		off += n
	}
	s.epoch.Add(1)
	return nil, nil
}

// writableFrame runs the copy-on-write protocol of §V-A2 and returns a
// frame this writer may mutate, with a transient pin for the caller's
// payload copy. Shared frames (refcount > 1) are duplicated; the
// page-granular CoW copy happens under the shard lock so the new frame is
// never visible half-initialized, while the caller's payload copy happens
// after unlock.
func (s *Server) writableFrame(key transKey) (int32, error) {
	sh := s.transShardOf(key)
	sh.mu.Lock()
	f, ok := sh.m[key]
	if !ok {
		nf, popped := s.popFrame()
		if !popped {
			sh.mu.Unlock()
			return -1, dm.ErrOutOfMemory
		}
		clear(s.frame(nf))
		s.refcnt[nf].Store(2) // mapping hold + caller pin
		sh.m[key] = nf
		sh.mu.Unlock()
		return nf, nil
	}
	if s.refcnt[f].Load() > 1 {
		nf, popped := s.popFrame()
		if !popped {
			sh.mu.Unlock()
			return -1, dm.ErrOutOfMemory
		}
		copy(s.frame(nf), s.frame(f))
		s.refcnt[nf].Store(2) // mapping hold + caller pin
		sh.m[key] = nf
		sh.mu.Unlock()
		s.decRef(f) // the mapping's hold moves to nf
		return nf, nil
	}
	s.pin(f)
	sh.mu.Unlock()
	return f, nil
}

func (s *Server) stage(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalStageReq(body)
	if err != nil {
		return nil, err
	}
	if len(req.Data) == 0 {
		return nil, dm.ErrOutOfRange
	}
	frames, err := s.fillFrames(req.Data)
	if err != nil {
		return nil, err
	}
	key := s.nextKey.Add(1) - 1
	// Publish under the owner's shared lock: a reap holds d.mu
	// exclusively, so either it already ran (gone — roll the frames back,
	// nothing leaks) or the entry lands in the shard before the reap's ref
	// sweep can start and is reclaimed by it normally.
	d.mu.RLock()
	if d.gone {
		d.mu.RUnlock()
		s.releaseFrames(frames)
		return nil, dm.ErrBadAddress
	}
	sh := s.refShardOf(key)
	sh.mu.Lock()
	sh.m[key] = &refEntry{frames: frames, size: int64(len(req.Data)), owner: d.owner}
	sh.mu.Unlock()
	d.mu.RUnlock()
	return refKeyResp(key), nil
}

// errStageAtKeySpace rejects stage_at keys outside the pool-minted half
// of the key space (dmwire.ReplicaKeyBit clear): such a key could collide
// with this server's own counter-minted keys.
var errStageAtKeySpace = errors.New("live: stage_at key outside replica key space")

// stageAt is stage with a caller-chosen key: the replica-placement
// primitive. The key must come from the pool-minted half of the key space
// (dmwire.ReplicaKeyBit set) so it can never collide with this server's
// own counter; staging a key the server already holds fails with
// dm.ErrRefExists and leaves the existing ref untouched, which makes
// repair re-stages idempotent. A request carrying replicas also records
// the key's epoch-1 directory entry (§D16) in the same locked section
// that publishes the ref: a racing session reap sees both or neither, and
// a failed stage records nothing.
func (s *Server) stageAt(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalStageAtReq(body)
	if err != nil {
		return nil, err
	}
	if len(req.Data) == 0 {
		return nil, dm.ErrOutOfRange
	}
	if req.Key&dmwire.ReplicaKeyBit == 0 {
		return nil, errStageAtKeySpace
	}
	sh := s.refShardOf(req.Key)
	// Early existence probe: don't burn frames and a bulk copy on a key
	// that is already present (the common repair race). The authoritative
	// check re-runs under the publish lock below.
	sh.mu.RLock()
	_, exists := sh.m[req.Key]
	sh.mu.RUnlock()
	if exists {
		return nil, dm.ErrRefExists
	}
	frames, err := s.fillFrames(req.Data)
	if err != nil {
		return nil, err
	}
	// Publish under the owner's shared lock exactly like stage(); on any
	// failure past this point the frames roll back to the free list.
	d.mu.RLock()
	if d.gone {
		d.mu.RUnlock()
		s.releaseFrames(frames)
		return nil, dm.ErrBadAddress
	}
	sh.mu.Lock()
	if _, dup := sh.m[req.Key]; dup {
		sh.mu.Unlock()
		d.mu.RUnlock()
		s.releaseFrames(frames)
		return nil, dm.ErrRefExists
	}
	if len(req.Replicas) > 0 {
		s.reg.Put(registry.Entry{Key: req.Key, Size: int64(len(req.Data)), Epoch: 1, Replicas: req.Replicas})
	}
	sh.m[req.Key] = &refEntry{frames: frames, size: int64(len(req.Data)), owner: d.owner}
	sh.mu.Unlock()
	d.mu.RUnlock()
	s.stagePuts.Add(1)
	return refKeyResp(req.Key), nil
}

// StagePuts returns the number of caller-keyed stages (MStageAt) this
// server has accepted: replica placements plus repair re-stages.
func (s *Server) StagePuts() int64 { return s.stagePuts.Load() }

// regPut merges one directory entry (DESIGN.md §D16). Higher epoch
// wins; a stale or duplicate put is a silent no-op so handoff retries
// and anti-entropy pushes are idempotent.
func (s *Server) regPut(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalRegPutReq(body)
	if err != nil {
		return nil, err
	}
	if req.Entry.Key&dmwire.ReplicaKeyBit == 0 {
		return nil, errStageAtKeySpace
	}
	s.reg.Put(req.Entry)
	return nil, nil
}

// regGet answers a directory point query; ErrBadRef when this shard's
// slice has no entry for the key.
func (s *Server) regGet(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalRegGetReq(body)
	if err != nil {
		return nil, err
	}
	ent, ok := s.reg.Get(req.Key)
	if !ok {
		return nil, dm.ErrBadRef
	}
	return dmwire.RegGetResp{Entry: ent}.Marshal(), nil
}

// regSync serves one anti-entropy page of the directory, ascending by
// key from strictly after the cursor.
func (s *Server) regSync(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalRegSyncReq(body)
	if err != nil {
		return nil, err
	}
	limit := int(req.Limit)
	if limit <= 0 || limit > dmwire.MaxRegSyncEntries {
		limit = dmwire.MaxRegSyncEntries
	}
	return dmwire.RegSyncResp{Entries: s.reg.Page(req.AfterKey, limit)}.Marshal(), nil
}

// Registry exposes the shard's directory slice (tests, invariants).
func (s *Server) Registry() *registry.Registry { return s.reg }

func (s *Server) readRef(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalReadRefReq(body)
	if err != nil {
		return nil, err
	}
	sh := s.refShardOf(req.Key)
	sh.mu.RLock()
	ref, ok := sh.m[req.Key]
	if !ok {
		sh.mu.RUnlock()
		return nil, dm.ErrBadRef
	}
	off, size := int64(req.Off), int64(req.Size)
	if off < 0 || size < 0 || off+size > ref.size {
		sh.mu.RUnlock()
		return nil, dm.ErrOutOfRange
	}
	// Pin the overlapped frames while the entry still holds them; after
	// RUnlock a concurrent free_ref may reclaim the rest of the ref but
	// not the pages this read is copying.
	first := off / s.pageSize()
	last := int64(0)
	if size > 0 {
		last = (off + size - 1) / s.pageSize()
	} else {
		last = first - 1
	}
	for p := first; p <= last; p++ {
		s.pin(ref.frames[p])
	}
	frames := ref.frames
	sh.mu.RUnlock()

	out := s.copyOut(frames, off, size)
	for p := first; p <= last; p++ {
		s.decRef(frames[p])
	}
	return out, nil
}

// consumeRef is read_ref and free_ref in one exchange (MConsumeRef). The
// entry is unpublished under the ref-shard write lock before the copy, so
// of racing consumes and frees exactly one wins the ref; the winner then
// copies through the ref's own frame holds, which no one else can drop,
// and releases them. A range error leaves the ref live.
func (s *Server) consumeRef(body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalReadRefReq(body)
	if err != nil {
		return nil, err
	}
	sh := s.refShardOf(req.Key)
	sh.mu.Lock()
	ref, ok := sh.m[req.Key]
	if !ok {
		sh.mu.Unlock()
		return nil, dm.ErrBadRef
	}
	off, size := int64(req.Off), int64(req.Size)
	if off+size > ref.size {
		sh.mu.Unlock()
		return nil, dm.ErrOutOfRange
	}
	delete(sh.m, req.Key)
	sh.mu.Unlock()
	s.retireDirEntry(req.Key)
	out := s.copyOut(ref.frames, off, size)
	s.releaseFrames(ref.frames)
	s.epoch.Add(1)
	return out, nil
}

// adoptRef moves a ref to the caller in one exchange (MAdoptRef): the
// entry leaves its old key and is republished, with the same frames and
// holds, under a new key owned by the adopting session, so the ref
// outlives its producer's reap and dies with the adopter's. The move runs
// under the adopter's shared d.mu (a reaped adopter adopts nothing, as
// in stageAt) and under both keys' ref-shard write locks, so of racing
// adopts, consumes and frees of the old key exactly one wins. The old
// key's directory entry is retired, and a request carrying replicas
// records the new key's epoch-1 entry in the same locked section.
func (s *Server) adoptRef(d *dmSession, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalAdoptRefReq(body)
	if err != nil {
		return nil, err
	}
	// A caller-chosen key comes from the pool-minted half of the key
	// space, and only such keys have directory entries.
	if (req.NewKey != 0 || len(req.Replicas) > 0) && req.NewKey&dmwire.ReplicaKeyBit == 0 {
		return nil, errStageAtKeySpace
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.gone {
		return nil, dm.ErrBadAddress
	}
	newKey := req.NewKey
	if newKey == 0 {
		newKey = s.nextKey.Add(1) - 1
	}
	osh, nsh := s.refShardOf(req.Key), s.refShardOf(newKey)
	s.lockRefPair(req.Key, newKey)
	ref, ok := osh.m[req.Key]
	if !ok {
		s.unlockRefPair(req.Key, newKey)
		return nil, dm.ErrBadRef
	}
	if _, dup := nsh.m[newKey]; dup {
		s.unlockRefPair(req.Key, newKey)
		return nil, dm.ErrRefExists
	}
	delete(osh.m, req.Key)
	s.retireDirEntry(req.Key)
	if len(req.Replicas) > 0 {
		s.reg.Put(registry.Entry{Key: newKey, Size: ref.size, Epoch: 1, Replicas: req.Replicas})
	}
	// The owner is read only under the shard lock (a reap's sweep);
	// readers that found the entry under the old key use frames and size.
	ref.owner = d.owner
	nsh.m[newKey] = ref
	s.unlockRefPair(req.Key, newKey)
	s.epoch.Add(1)
	return refKeyResp(newKey), nil
}

// refKeyResp encodes a RefKeyResp into a pooled buffer, which the
// request's session slot keeps and recycles like any fast response.
func refKeyResp(key uint64) []byte {
	return dmwire.RefKeyResp{Key: key}.Append(getBuf(8)[:0])
}

// lockRefPair write-locks the ref stripes of keys a and b (once when
// they share one) in stripe order, so two movers never deadlock.
func (s *Server) lockRefPair(a, b uint64) {
	i, j := a&(refShardCount-1), b&(refShardCount-1)
	s.refs[min(i, j)].mu.Lock()
	if i != j {
		s.refs[max(i, j)].mu.Lock()
	}
}

// unlockRefPair releases what lockRefPair(a, b) took.
func (s *Server) unlockRefPair(a, b uint64) {
	i, j := a&(refShardCount-1), b&(refShardCount-1)
	if i != j {
		s.refs[max(i, j)].mu.Unlock()
	}
	s.refs[min(i, j)].mu.Unlock()
}

// copyOut copies [off, off+size) of a ref's frames into a pooled
// response buffer. The caller keeps those frames from being reclaimed
// (pins, or holds it owns) until copyOut returns.
func (s *Server) copyOut(frames []int32, off, size int64) []byte {
	out := getBuf(int(size))
	for pos := int64(0); pos < size; {
		page := (off + pos) / s.pageSize()
		pageOff := (off + pos) % s.pageSize()
		n := min(s.pageSize()-pageOff, size-pos)
		copy(out[pos:pos+n], s.frame(frames[page])[pageOff:])
		pos += n
	}
	return out
}

// CheckInvariants validates the page manager bookkeeping. It requires the
// server to be quiescent (no in-flight operations), as stress tests are
// after their workers join; it takes every stripe lock for a consistent
// snapshot.
func (s *Server) CheckInvariants() error {
	for i := range s.trans {
		s.trans[i].mu.RLock()
		defer s.trans[i].mu.RUnlock()
	}
	for i := range s.refs {
		s.refs[i].mu.RLock()
		defer s.refs[i].mu.RUnlock()
	}
	s.freeMu.Lock()
	defer s.freeMu.Unlock()

	holds := make(map[int32]int32)
	for i := range s.trans {
		for _, f := range s.trans[i].m {
			holds[f]++
		}
	}
	for i := range s.refs {
		for _, ref := range s.refs[i].m {
			for _, f := range ref.frames {
				holds[f]++
			}
		}
	}
	for f, want := range holds {
		if got := s.refcnt[f].Load(); got != want {
			return fmt.Errorf("frame %d refcount %d, want %d", f, got, want)
		}
	}
	freeSet := make(map[int32]bool, s.free.n)
	for _, f := range s.free.frames[:s.free.n] {
		if freeSet[f] {
			return fmt.Errorf("frame %d free twice", f)
		}
		freeSet[f] = true
		if holds[f] != 0 {
			return fmt.Errorf("frame %d free but held", f)
		}
	}
	if len(freeSet)+len(holds) != s.cfg.NumPages {
		return fmt.Errorf("frames leak: %d free + %d held != %d", len(freeSet), len(holds), s.cfg.NumPages)
	}
	return nil
}
