package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/refcache"
	"repro/internal/stats"
)

// Config describes a shard cluster.
type Config struct {
	// Shards lists the server addresses; Shards[i] is shard ID i. The
	// shard ID is the cluster-wide identity carried by located refs, so
	// every process sharing refs must use the same ordering (servers
	// started with -shard-id verify it at registration).
	Shards []string
	// Client is the per-shard live client configuration; its
	// OnHeartbeatFailure hook still fires (before the pool's own
	// failover accounting).
	Client live.ClientConfig
	// UnhealthyAfter is how many consecutive heartbeat failures eject a
	// shard from the ring (<= 0 uses 3). Ejection affects NEW placements
	// only: refs already on the shard keep resolving until its session
	// sweep reclaims the session.
	UnhealthyAfter int
	// RejoinPoll paces the background check that re-adds an ejected
	// shard once its heartbeats recover (0 uses 500ms; negative disables
	// — ejection is then permanent for the client's lifetime).
	RejoinPoll time.Duration
	// OnTopology, when set, is called after a shard is ejected from or
	// rejoined to the ring (healthy=false / true). It must not block.
	OnTopology func(shard uint32, healthy bool)
	// ReplicaFactor R places each staged payload on the R distinct ring
	// successors of its placement point (DESIGN.md §D13), so one shard
	// death loses nothing. <= 1 disables replication (the pre-replica
	// behaviour); values above dmwire.MaxRefReplicas are clamped.
	ReplicaFactor int
	// RepairInterval paces the periodic repair scan over tracked refs
	// (0 uses 2s; negative disables the periodic scan — topology changes
	// still kick an immediate pass).
	RepairInterval time.Duration
	// RegistryHandoff hands staged replicated refs off to the cluster ref
	// registry (DESIGN.md §D16): each replica's stage_at carries the
	// target list, and the shard records the directory entry together
	// with the copy — no extra exchange — making the ref registry-owned:
	// it survives its producer's lease reap and is released only by an
	// explicit free or a migration reclaim. A stage that placed fewer
	// copies than it targeted publishes a corrected entry (reg_put at
	// epoch 2) to the shards that hold one. The repairer additionally
	// anti-entropy-syncs directory pages from the shards (adopting refs
	// staged by departed clients) and read failover falls back to a
	// directory lookup when every placement-derived candidate misses. Off
	// by default: without it every stage_at carries an empty list and the
	// pool behaves as before (refs die with their producer's session).
	RegistryHandoff bool
	// CacheBytes enables the cluster-level hot-ref payload cache
	// (DESIGN.md §D15): whole-object by-ref reads are served from
	// memory — checked before shard routing and before replica failover
	// — up to this budget, invalidated by per-shard epoch advances,
	// local frees, ejection and session reap, and bounded by the
	// shard lease TTL. 0 disables. This is the stack's only cache: a
	// cached single server is a one-shard pool.
	CacheBytes int64
}

// errNoShards is returned when every shard has been ejected.
var errNoShards = errors.New("pool: no healthy shards in ring")

// shard is one member server and its dedicated live client session.
type shard struct {
	id      uint32
	addr    string
	cl      *live.Client
	healthy atomic.Bool
	// failoverServed counts reads this shard answered as a non-primary
	// replica after the primary failed (ReplicaStats).
	failoverServed atomic.Int64
	// repairsIn counts replica copies the repairer re-staged onto this
	// shard (ReplicaStats).
	repairsIn atomic.Int64
}

// Client is a process's handle on the shard cluster: live.Client's ref
// calls (stage, read, consume, adopt, free, map), with placements routed
// through the ring and refs made location-aware — Ref.Server carries the
// shard ID. The Table II region calls stay on live.Client, one server's
// session.
// Methods are safe for concurrent use.
type Client struct {
	cfg Config
	// shards is copy-on-write: AddShard swaps in a grown copy under
	// shardsMu, so readers snapshot the slice once (shardList) and index
	// it freely without holding a lock on the hot path.
	shardsMu sync.RWMutex
	shards   []*shard
	// addMu serializes AddShard (dial + register happen outside shardsMu).
	addMu  sync.Mutex
	ring   *hashRing
	cursor atomic.Uint64 // placement key for unreplicated StageRef

	// Tracked replicated refs staged by this client (replica.go): the
	// repairer's work list, in the Kademlia republisher model — each
	// staging client keeps its own refs fully replicated.
	refMu sync.Mutex
	refs  map[uint64]*refMeta

	repairKick    chan struct{}
	failoverReads atomic.Int64 // reads served by a non-primary replica
	repairsDone   atomic.Int64 // replica copies restored by the repairer
	repairErrors  atomic.Int64 // failed repair reads/stages
	repairBytes   atomic.Int64 // payload bytes copied by the repairer

	// Migration counters (DESIGN.md §D16): a "migration" is a rebalance
	// pass moving a ref onto its wanted ring successors AND reclaiming a
	// surplus copy; a bare reclaim (surplus freed with no copy needed)
	// still counts reclaimedReplicas.
	migratedRefs      atomic.Int64 // refs moved onto their wanted placement
	migratedBytes     atomic.Int64 // payload bytes staged by those moves
	reclaimedReplicas atomic.Int64 // surplus replica copies freed

	// syncCursors tracks the per-shard anti-entropy page cursor
	// (RegistryHandoff); guarded by refMu alongside the refs it feeds.
	syncCursors map[uint32]uint64

	// cache is the cluster-level hot-ref payload cache (nil when
	// disabled), keyed by (primary shard ID, ref key) so repeat reads
	// dedup across failover. cacheTTL caps entry lifetime at the
	// shortest shard lease (0 when no shard leases sessions).
	cache    *refcache.Cache[*live.Buf]
	cacheTTL atomic.Int64 // nanoseconds; set at Register

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Address tagging: as in dmnet, the routing identity rides the top byte
// of a dm.RemoteAddr — here the cluster-wide shard ID, so a mapped
// address says which shard's session it belongs to. A live.Client hands
// out the server's raw addresses, whose top byte is always 0, so the
// pool's tag byte is free to claim.
const shardShift = 56

func tagShard(id uint32, a dm.RemoteAddr) dm.RemoteAddr {
	return dm.RemoteAddr(uint64(id)<<shardShift | uint64(a))
}

// Dial connects one live client per shard. The returned pool is not
// usable until Register.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("pool: need at least one shard address")
	}
	if cfg.UnhealthyAfter <= 0 {
		cfg.UnhealthyAfter = 3
	}
	if cfg.RejoinPoll == 0 {
		cfg.RejoinPoll = 500 * time.Millisecond
	}
	if cfg.ReplicaFactor > dmwire.MaxRefReplicas {
		cfg.ReplicaFactor = dmwire.MaxRefReplicas
	}
	p := &Client{
		cfg:         cfg,
		ring:        newHashRing(),
		refs:        make(map[uint64]*refMeta),
		syncCursors: make(map[uint32]uint64),
		repairKick:  make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	if cfg.CacheBytes > 0 {
		p.cache = refcache.New[*live.Buf](refcache.Config{MaxBytes: cfg.CacheBytes})
	}
	for i, addr := range cfg.Shards {
		s, err := p.newShard(uint32(i), addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.shards = append(p.shards, s)
		p.ring.Add(s.id)
	}
	return p, nil
}

// newShard dials one member server's dedicated live session, wiring the
// pool's ejection and cache-invalidation hooks around the caller's.
func (p *Client) newShard(id uint32, addr string) (*shard, error) {
	s := &shard{id: id, addr: addr}
	s.healthy.Store(true)
	ccfg := p.cfg.Client
	base := ccfg.OnHeartbeatFailure
	ccfg.OnHeartbeatFailure = func(addr string, consecutive int, err error) {
		if base != nil {
			base(addr, consecutive, err)
		}
		if consecutive >= p.cfg.UnhealthyAfter {
			p.eject(s)
		}
	}
	baseEpoch := ccfg.OnEpochAdvance
	ccfg.OnEpochAdvance = func(addr string, epoch uint64) {
		// The shard's invalidation epoch advanced: something it held
		// was freed, overwritten or reaped, so every pool-cached
		// payload homed on it is suspect (§D15).
		p.cache.InvalidateServer(s.id)
		if baseEpoch != nil {
			baseEpoch(addr, epoch)
		}
	}
	cl, err := live.DialConfig(ccfg, addr)
	if err != nil {
		return nil, fmt.Errorf("pool: shard %d (%s): %w", id, addr, err)
	}
	s.cl = cl
	return s, nil
}

// shardList snapshots the shard slice. The returned slice is immutable
// (AddShard replaces, never appends in place), so callers may index it
// without further locking.
func (p *Client) shardList() []*shard {
	p.shardsMu.RLock()
	s := p.shards
	p.shardsMu.RUnlock()
	return s
}

// AddShard grows the cluster by one member at the next shard ID: it
// dials and registers a session on addr, verifies any announced shard
// ID matches, admits the shard to the ring, and kicks the repairer —
// which now sees every tracked ref whose wanted placement moved onto
// the newcomer and migrates it there (copy, registry flip, surplus
// reclaim; DESIGN.md §D16). Reads keep failing over through both old
// and new locations while the rebalance drains, so the join is safe
// under load. Call after Register; every process sharing the cluster
// map must observe joins in the same order, since the assigned ID is
// positional.
func (p *Client) AddShard(addr string) (uint32, error) {
	p.addMu.Lock()
	defer p.addMu.Unlock()
	id := uint32(len(p.shardList()))
	s, err := p.newShard(id, addr)
	if err != nil {
		return 0, err
	}
	if err := s.cl.Register(); err != nil {
		s.cl.Close()
		return 0, fmt.Errorf("pool: joining shard %d (%s): %w", id, addr, err)
	}
	if announced, ok := s.cl.ServerShard(); ok && announced != id {
		s.cl.Close()
		return 0, fmt.Errorf("pool: server %s announces shard %d but joins as shard %d",
			addr, announced, id)
	}
	// A shorter lease on the newcomer tightens the cache-staleness cap.
	if l := s.cl.Lease(); l > 0 {
		if cur := time.Duration(p.cacheTTL.Load()); cur == 0 || l < cur {
			p.cacheTTL.Store(int64(l))
		}
	}
	p.shardsMu.Lock()
	grown := make([]*shard, len(p.shards)+1)
	copy(grown, p.shards)
	grown[id] = s
	p.shards = grown
	p.shardsMu.Unlock()
	p.ring.Add(id)
	if cb := p.cfg.OnTopology; cb != nil {
		cb(id, true)
	}
	p.kickRepair()
	return id, nil
}

// Register obtains a session on every shard and starts the heartbeat
// and rejoin machinery; must complete before other calls. Servers that
// announce a shard ID (dmserverd -shard-id) are verified against their
// position in Config.Shards, catching a shuffled or stale server list
// before any ref is minted with the wrong location.
func (p *Client) Register() error {
	for _, s := range p.shardList() {
		if err := s.cl.Register(); err != nil {
			return fmt.Errorf("pool: shard %d (%s): %w", s.id, s.addr, err)
		}
		if announced, ok := s.cl.ServerShard(); ok && announced != s.id {
			return fmt.Errorf("pool: server %s announces shard %d but is listed as shard %d",
				s.addr, announced, s.id)
		}
	}
	// Cap cached-entry lifetime at the shortest shard lease: a missed
	// invalidation can then serve stale bytes for at most one lease TTL
	// and never across a reap (§D15).
	var minLease time.Duration
	for _, s := range p.shardList() {
		if l := s.cl.Lease(); l > 0 && (minLease == 0 || l < minLease) {
			minLease = l
		}
	}
	p.cacheTTL.Store(int64(minLease))
	if p.cfg.RejoinPoll > 0 {
		p.wg.Add(1)
		go p.rejoinLoop()
	}
	if p.replicaFactor() > 1 {
		p.wg.Add(1)
		go p.repairLoop()
	}
	return nil
}

// Close stops the rejoin loop, releases every cached payload, and
// tears down every shard session.
func (p *Client) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.cache.Flush()
	var first error
	for _, s := range p.shardList() {
		if s.cl == nil {
			continue
		}
		if err := s.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// eject removes a shard from the ring (new placements only; byID
// resolution is untouched, so the shard's existing refs keep routing to
// it until the server reaps the session).
func (p *Client) eject(s *shard) {
	if !s.healthy.CompareAndSwap(true, false) {
		return
	}
	p.ring.Remove(s.id)
	// While ejected the shard's epoch is unobservable, so its cached
	// payloads can no longer be kept coherent — drop them (§D15).
	p.cache.InvalidateServer(s.id)
	if cb := p.cfg.OnTopology; cb != nil {
		cb(s.id, false)
	}
	// Refs with a replica on the ejected shard are now under-replicated:
	// re-replicate them onto the shard's ring successors immediately.
	p.kickRepair()
}

// rejoinLoop re-admits ejected shards. Two recovery paths:
//
//   - Partition healed, session intact: the per-server consecutive-failure
//     counter resets to zero only on a successful renewal, so a zero
//     reading means the session (and the shard's data) is live again —
//     plain rejoin.
//   - Session reaped (server restart or lease expiry): the heartbeat loop
//     has exited with the SessionReaped latch set. The shard's memory is
//     gone, so the poller re-registers a fresh session, verifies the
//     server still announces the expected shard ID, drops the shard from
//     every tracked replica set, and re-admits it as a repair target.
func (p *Client) rejoinLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.RejoinPoll)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			for _, s := range p.shardList() {
				if s.healthy.Load() {
					continue
				}
				if s.cl.SessionReaped() {
					if err := s.cl.Reregister(); err != nil {
						continue // still down; retry next poll
					}
					if announced, ok := s.cl.ServerShard(); ok && announced != s.id {
						continue // a different server came up on the address
					}
					// Everything the old session held on this shard is
					// gone: forget its replicas before readmitting it, so
					// reads don't chase vanished copies and the repairer
					// re-stages onto it.
					p.invalidateShard(s.id)
				} else if s.cl.SessionHealth() != 0 {
					continue
				}
				if s.healthy.CompareAndSwap(false, true) {
					p.ring.Add(s.id)
					if cb := p.cfg.OnTopology; cb != nil {
						cb(s.id, true)
					}
					p.kickRepair()
				}
			}
		}
	}
}

// route picks the shard owning key via the ring.
func (p *Client) route(key uint64) (*shard, error) {
	id, ok := p.ring.Lookup(key)
	if !ok {
		return nil, errNoShards
	}
	shards := p.shardList()
	if int(id) >= len(shards) {
		return nil, errNoShards // ring raced ahead of the shard list
	}
	return shards[id], nil
}

// byID resolves a shard by its cluster-wide ID — the consume-side path,
// deliberately NOT ring-based so refs and addresses minted before an
// ejection keep resolving to the shard that stores their pages.
func (p *Client) byID(id uint32) (*shard, error) {
	shards := p.shardList()
	if int(id) >= len(shards) {
		return nil, fmt.Errorf("pool: ref names shard %d outside the %d-shard cluster: %w",
			id, len(shards), dm.ErrBadAddress)
	}
	return shards[id], nil
}

// Shards returns the cluster size.
func (p *Client) Shards() int { return len(p.shardList()) }

// Healthy returns the shard IDs currently in the ring, sorted.
func (p *Client) Healthy() []uint32 { return p.ring.Members() }

// SessionHealth merges every shard's consecutive heartbeat-failure
// count, keyed by server address (see live.Client.SessionHealth).
func (p *Client) SessionHealth() map[string]int {
	shards := p.shardList()
	out := make(map[string]int, len(shards))
	for _, s := range shards {
		out[s.addr] = s.cl.SessionHealth()
	}
	return out
}

// Stats sums the per-shard client counters (see live.Client.Stats) and
// folds in the pool-level hot-ref cache counters.
func (p *Client) Stats() live.Stats {
	var sum live.Stats
	for _, s := range p.shardList() {
		st := s.cl.Stats()
		sum.Calls += st.Calls
		sum.Retries += st.Retries
		sum.Failures += st.Failures
		sum.Timeouts += st.Timeouts
		sum.TransportErrors += st.TransportErrors
		sum.HeartbeatFailures += st.HeartbeatFailures
	}
	cs := p.cache.Stats()
	sum.CacheHits += cs.Hits
	sum.CacheMisses += cs.Misses
	sum.CacheAdmits += cs.Admits
	sum.CacheEvictions += cs.Evictions
	sum.CacheInvalidations += cs.Invalidations
	sum.CacheCoalesced += cs.Coalesced
	return sum
}

// CacheStats snapshots the pool-level hot-ref cache counters (zero when
// the cache is disabled).
func (p *Client) CacheStats() refcache.Stats { return p.cache.Stats() }

// CacheEnabled reports whether the pool-level hot-ref cache is on.
func (p *Client) CacheEnabled() bool { return p.cache != nil }

// ShardStats returns each shard's own counter snapshot, indexed by
// shard ID.
func (p *Client) ShardStats() []live.Stats {
	shards := p.shardList()
	out := make([]live.Stats, len(shards))
	for i, s := range shards {
		out[i] = s.cl.Stats()
	}
	return out
}

// Latency merges every shard's per-op latency histogram into one
// cluster-wide percentile summary (nanoseconds).
func (p *Client) Latency() stats.Summary {
	merged := &stats.Histogram{}
	for _, s := range p.shardList() {
		merged.Merge(s.cl.LatencyHistogram())
	}
	return merged.Summarize()
}

// ShardLatency returns each shard's own per-op latency summary, indexed
// by shard ID (dmctl pool stats prints these).
func (p *Client) ShardLatency() []stats.Summary {
	shards := p.shardList()
	out := make([]stats.Summary, len(shards))
	for i, s := range shards {
		out[i] = s.cl.Latency()
	}
	return out
}

// MapRef maps a located ref on its shard; the returned address carries
// the shard ID in its top byte. The pool has no region calls: the mapped
// pages are read, written and freed through a live.Client on that shard
// (DESIGN.md §D13).
func (p *Client) MapRef(ref dm.Ref) (dm.RemoteAddr, error) {
	s, err := p.byID(ref.Server)
	if err != nil {
		return 0, err
	}
	addr, err := s.cl.MapRef(ref)
	if err != nil {
		return 0, err
	}
	return tagShard(s.id, addr), nil
}

// FreeRef drops a located ref's page hold. Replicated refs (pool-minted
// key) are freed on every replica shard; single-copy refs on their one
// shard.
func (p *Client) FreeRef(ref dm.Ref) error {
	// Tombstone the key whether or not the free reports success (a
	// timed-out free may still have landed on the server, §D15): Deny
	// drops the cached payload, poisons in-flight loads, and makes
	// failover reads of the dead ref short-circuit instead of probing
	// every replica (§D16). The epoch watcher clears the tombstone if the
	// shard's key population changes.
	defer p.cache.Deny(p.cacheKey(ref), time.Duration(p.cacheTTL.Load()))
	if ref.Key&dmwire.ReplicaKeyBit != 0 {
		return p.freeReplicated(ref)
	}
	s, err := p.byID(ref.Server)
	if err != nil {
		return err
	}
	return s.cl.FreeRef(ref)
}

// StageRef stages data onto a ring-chosen shard and returns a located
// ref. Placement uses an internal cursor, spreading unkeyed stages
// uniformly; use stageRefKeyed to co-locate related data. At
// ReplicaFactor > 1 the payload is staged on the R ring successors of a
// pool-minted cluster key (replica.go) and the stage succeeds once at
// least one copy lands.
func (p *Client) StageRef(data []byte) (dm.Ref, error) {
	if p.replicaFactor() > 1 {
		return p.stageReplicated(p.mintKey(), data, 0)
	}
	return p.stageRefKeyed(p.cursor.Add(1), data)
}

// stageRefKeyed stages data onto the shard owning key — the same key
// always lands on the same shard (until the ring changes), which is how
// an application co-locates the pieces of one logical object. At
// ReplicaFactor > 1 the co-location key is ignored: replicated placement
// must be derivable from the ref key alone, so every stage follows its
// own minted cluster key instead.
func (p *Client) stageRefKeyed(key uint64, data []byte) (dm.Ref, error) {
	if p.replicaFactor() > 1 {
		return p.stageReplicated(p.mintKey(), data, 0)
	}
	s, err := p.route(key)
	if err != nil {
		return dm.Ref{}, err
	}
	ref, err := s.cl.StageRef(data)
	if err != nil {
		return dm.Ref{}, err
	}
	ref.Server = s.id
	return ref, nil
}

// ReadRef reads a located ref's snapshot into dst, failing over across
// the ref's replicas when the primary shard errors or has been ejected:
// the leased read (replica.go) plus the one copy.
func (p *Client) ReadRef(ref dm.Ref, off int64, dst []byte) error {
	return p.ReadRefFrom(ref, nil, off, dst)
}

// ReadRefLease reads a located ref's snapshot as a leased zero-copy
// buffer (live.Client.ReadRefLease), with the same cache and replica
// failover as ReadRef; the caller must Release it exactly once. A
// cached Buf's bytes are shared with other readers and must be treated
// as read-only (which leased bytes always are).
func (p *Client) ReadRefLease(ref dm.Ref, off, size int64) (*live.Buf, error) {
	return p.readLease(ref, nil, off, size)
}

// cacheKey keys a located ref by (nominal primary shard, ref key); the
// key stays stable across failover reads, so a payload fetched from a
// fallback replica still dedups with primary-served reads.
func (p *Client) cacheKey(ref dm.Ref) refcache.Key {
	return refcache.Key{Server: ref.Server, Ref: ref.Key}
}
