package pool

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/migrate"
	"repro/internal/registry"
)

// R-way replication for staged payloads (DESIGN.md §D13).
//
// Placement invariant: a replicated ref's copies live on the R distinct
// ring successors of its key — a pure function of (key, membership), so
// any client holding the cluster map can locate every replica from the
// bare 8-byte key, with no directory service. The pool mints the key
// itself (dmwire.ReplicaKeyBit set, so it can never collide with a
// server's own counter-minted keys) and stages the same payload under it
// on every successor via MStageAt.
//
// The model is the Kademlia one (K-closest placement + republish to the
// CURRENT closest nodes): each staging client tracks its own replicated
// refs and keeps them fully replicated as membership changes. Read
// failover is stateless — any reader probes the successors — but repair
// responsibility follows the ref's producer.

// refMeta is the tracked state of one replicated ref staged by this
// client. replicas is guarded by Client.refMu.
type refMeta struct {
	size     int64
	replicas []uint32 // shards believed to hold a copy
	// epoch is the ref's placement version (DESIGN.md §D16): 1 at stage,
	// bumped by each migration flip so directory merges are
	// last-writer-wins.
	epoch uint64
	// mirrored marks a ref learned from a directory page rather than
	// staged or adopted here; syncPass forgets it when the pages prove
	// it gone.
	mirrored bool
}

// replicaFactor returns the effective R (>= 1).
func (p *Client) replicaFactor() int {
	if p.cfg.ReplicaFactor <= 1 {
		return 1
	}
	return p.cfg.ReplicaFactor
}

// mintKey mints a cluster-wide replica key: uniformly random with
// dmwire.ReplicaKeyBit set, re-drawn on the (vanishing) chance it is
// already tracked locally. Cross-client collisions surface as
// dm.ErrRefExists at stage time and re-mint there.
func (p *Client) mintKey() uint64 {
	for {
		k := rand.Uint64() | dmwire.ReplicaKeyBit
		p.refMu.Lock()
		_, dup := p.refs[k]
		p.refMu.Unlock()
		if !dup {
			return k
		}
	}
}

// track records a freshly staged replicated ref for the repairer.
func (p *Client) track(key uint64, size int64, replicas []uint32, epoch uint64) {
	cp := append([]uint32(nil), replicas...)
	p.refMu.Lock()
	p.refs[key] = &refMeta{size: size, replicas: cp, epoch: epoch}
	p.refMu.Unlock()
}

// adopt merges a directory entry learned via anti-entropy sync into the
// tracked set (§D16): unknown refs are added as mirrored, and a higher
// placement epoch overrides the local belief.
func (p *Client) adopt(ent registry.Entry) {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	m, ok := p.refs[ent.Key]
	if ok && ent.Epoch <= m.epoch {
		return
	}
	p.refs[ent.Key] = &refMeta{
		size:     ent.Size,
		replicas: append([]uint32(nil), ent.Replicas...),
		epoch:    ent.Epoch,
		mirrored: !ok || m.mirrored,
	}
}

// forgetMissing untracks every mirrored ref in the key range (after,
// last] that names shard id but is missing from page, id's directory
// page over that range. A live ref's entry is on every shard it names,
// so the ref was freed or moved away; if it lives on, another page
// teaches it again. Dropping only id instead would leave a freed ref
// half-placed until the repairer failed to copy it. Callers hold refMu.
func (p *Client) forgetMissing(id uint32, page []registry.Entry, after, last uint64) {
	for key, m := range p.refs {
		if !m.mirrored || key <= after || key > last || !slices.Contains(m.replicas, id) {
			continue
		}
		if _, found := slices.BinarySearchFunc(page, key, func(e registry.Entry, k uint64) int {
			return cmp.Compare(e.Key, k)
		}); !found {
			delete(p.refs, key)
		}
	}
}

// dropReplica forgets shard id's copy of key (a migration reclaim).
func (p *Client) dropReplica(key uint64, id uint32) {
	p.refMu.Lock()
	if m, ok := p.refs[key]; ok {
		kept := m.replicas[:0]
		for _, r := range m.replicas {
			if r != id {
				kept = append(kept, r)
			}
		}
		m.replicas = kept
	}
	p.refMu.Unlock()
}

// setEpoch records a migration flip's new placement version.
func (p *Client) setEpoch(key, epoch uint64) {
	p.refMu.Lock()
	if m, ok := p.refs[key]; ok && epoch > m.epoch {
		m.epoch = epoch
	}
	p.refMu.Unlock()
}

// untrack forgets a ref (FreeRef).
func (p *Client) untrack(key uint64) {
	p.refMu.Lock()
	delete(p.refs, key)
	p.refMu.Unlock()
}

// addReplica records that shard id now holds a copy of key.
func (p *Client) addReplica(key uint64, id uint32) {
	p.refMu.Lock()
	if m, ok := p.refs[key]; ok {
		have := false
		for _, r := range m.replicas {
			if r == id {
				have = true
				break
			}
		}
		if !have {
			m.replicas = append(m.replicas, id)
		}
	}
	p.refMu.Unlock()
}

// invalidateShard drops shard id from every tracked replica set: the
// server restarted with a fresh session, so the copies it held are gone.
// Pool-cached payloads homed on it go too — the fresh session starts a
// new epoch history, so cached entries can no longer be tied to it
// (§D15).
func (p *Client) invalidateShard(id uint32) {
	p.cache.InvalidateServer(id)
	p.refMu.Lock()
	for _, m := range p.refs {
		kept := m.replicas[:0]
		for _, r := range m.replicas {
			if r != id {
				kept = append(kept, r)
			}
		}
		m.replicas = kept
	}
	p.refMu.Unlock()
}

// successors returns the ring successors to probe for a replicated key:
// R of them, but never fewer than 2 — a replicated ref minted by a
// session with a larger R than ours still has at least 2 copies.
func (p *Client) successors(key uint64) []uint32 {
	r := p.replicaFactor()
	if r < 2 {
		r = 2
	}
	return p.ring.Successors(key, r)
}

// tracked appends the replica set this session tracks for key to dst.
func (p *Client) tracked(dst []uint32, key uint64) ([]uint32, bool) {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	m, ok := p.refs[key]
	if !ok {
		return dst, false
	}
	return append(dst, m.replicas...), true
}

// Replicas returns the shard IDs believed to hold ref, primary first
// where known: the tracked set for refs staged by this client, else —
// for replicated refs minted elsewhere — the current ring successors of
// the key. Single-copy refs (server-minted key) return nil.
func (p *Client) Replicas(ref dm.Ref) []uint32 {
	if ref.Key&dmwire.ReplicaKeyBit == 0 {
		return nil
	}
	if ids, ok := p.tracked(nil, ref.Key); ok {
		return ids
	}
	return p.successors(ref.Key)
}

// candidates appends to dst the read-failover order for ref: the ref's
// own Server field, then the tracked replica set (the ring successors
// when this session does not track the ref), then any wire hints (a
// located call arg's shard list, possibly stale), then the current ring
// successors — deduplicated, healthy shards first. Unhealthy candidates
// stay at the tail: an ejected shard may still answer (ejection is a
// heartbeat verdict, not proof of death), and trying it last costs
// nothing when everything else failed. With dst on the caller's stack, a
// single-copy ref's candidates allocate nothing.
func (p *Client) candidates(dst []uint32, ref dm.Ref, hints []uint32) []uint32 {
	var idBuf, sickBuf [candidatesInline]uint32
	ids := append(idBuf[:0], ref.Server)
	var succ []uint32
	if ref.Key&dmwire.ReplicaKeyBit != 0 {
		succ = p.successors(ref.Key)
		var own bool
		if ids, own = p.tracked(ids, ref.Key); !own {
			ids = append(ids, succ...)
		}
	}
	ids = append(ids, hints...)
	ids = append(ids, succ...) // repeats fall to the dedup below
	sick := sickBuf[:0]
	shards := p.shardList()
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			continue
		}
		// Out-of-cluster IDs stay in the list (classified unhealthy) so
		// byID can surface dm.ErrBadAddress instead of silently skipping.
		if int(id) < len(shards) && shards[id].healthy.Load() {
			dst = append(dst, id)
		} else {
			sick = append(sick, id)
		}
	}
	return append(dst, sick...)
}

// candidatesInline is the candidate count the callers' and candidates'
// own stack buffers hold before spilling to the heap.
const candidatesInline = 8

// failoverWorthy reports whether err on one replica justifies trying the
// next: range violations are deterministic (every replica holds the same
// snapshot), everything else — unknown ref (restarted shard), reaped
// session, connection loss, deadline — may be replica-local.
func failoverWorthy(err error) bool {
	return !errors.Is(err, dm.ErrOutOfRange)
}

// ReadRefFrom is ReadRef with explicit replica hints (e.g. the shard
// list carried by a located call arg from another process).
func (p *Client) ReadRefFrom(ref dm.Ref, hints []uint32, off int64, dst []byte) error {
	return p.readInto(ref, hints, off, dst)
}

// ReadRefLeaseFrom is ReadRefLease with explicit replica hints.
func (p *Client) ReadRefLeaseFrom(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error) {
	return p.readLease(ref, hints, off, size)
}

// registryLocate is the last-resort resolution for a located ref that
// no placement-derived candidate could serve (§D16): ask the key's
// ring successors' directories where the copies live now. The freshest
// entry found is adopted into the tracked set, so the next read goes
// straight there. Only meaningful under RegistryHandoff — without it
// the directories are empty and the lookups would be wasted RPCs.
func (p *Client) registryLocate(key uint64) []uint32 {
	if !p.cfg.RegistryHandoff || key&dmwire.ReplicaKeyBit == 0 {
		return nil
	}
	shards := p.shardList()
	var best registry.Entry
	found := false
	for _, id := range p.successors(key) {
		if int(id) >= len(shards) || !shards[id].healthy.Load() {
			continue
		}
		ent, err := shards[id].cl.RegGet(key)
		if err != nil {
			continue
		}
		if !found || ent.Epoch > best.Epoch {
			best, found = ent, true
		}
	}
	if !found {
		return nil
	}
	p.adopt(best)
	return append([]uint32(nil), best.Replicas...)
}

// readInto is the copying read: the leased read plus the one copy.
func (p *Client) readInto(ref dm.Ref, hints []uint32, off int64, dst []byte) error {
	b, err := p.readLease(ref, hints, off, int64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, b.Bytes())
	b.Release()
	return nil
}

// readLease is the pool's one by-ref read: every entry point — copying
// or leased, hinted or not — ends here. A freed-ref tombstone fails the
// read in one map lookup instead of probing every replica (§D16). A
// whole-object read is served through the hot-ref cache when enabled
// (§D15) — checked before shard routing, so a hit costs no RPC at all
// and returns the cached Buf retained; a miss runs one wire read under
// singleflight and offers it for admission. Only whole-object reads are
// cached, so one cached Buf satisfies every repeat reader without range
// bookkeeping. The caller must Release the returned Buf exactly once.
func (p *Client) readLease(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error) {
	key := p.cacheKey(ref)
	if p.cache.Denied(key) {
		return nil, dm.ErrBadRef
	}
	if p.cache != nil && off == 0 && size > 0 && size == ref.Size {
		b, err := p.cache.GetOrLoad(key, size, time.Duration(p.cacheTTL.Load()),
			func() (*live.Buf, error) { return p.readFailover(ref, hints, 0, size) })
		if err == nil && int64(b.Len()) != size {
			// The entry was cached under this key at another size: a ref
			// (refs arrive off the wire) whose Size is not what was staged.
			// Refuse it rather than hand back bytes of the wrong length.
			b.Release()
			return nil, dm.ErrOutOfRange
		}
		return b, err
	}
	return p.readFailover(ref, hints, off, size)
}

// readFailover is readLease's wire path (also the cache loader, which is
// why it must not consult the cache itself).
func (p *Client) readFailover(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error) {
	var cb [candidatesInline]uint32
	b, _, err := p.failover(ref, p.candidates(cb[:0], ref, hints), func(cl *live.Client) (*live.Buf, error) {
		return cl.ReadRefLease(ref, off, size)
	})
	return b, err
}

// failover runs one leased read of ref — op against a shard's session —
// on cands in failover order, and returns the first success with the
// shard that served it. Everything but a deterministic range violation
// fails over to the next candidate.
func (p *Client) failover(ref dm.Ref, cands []uint32, op func(*live.Client) (*live.Buf, error)) (*live.Buf, uint32, error) {
	var lastErr error
	for _, id := range cands {
		b, err := p.onShard(id, ref, op)
		if err == nil {
			return b, id, nil
		}
		if !failoverWorthy(err) {
			return nil, 0, err
		}
		lastErr = err
	}
	// Every placement-derived candidate missed: the ref may have been
	// migrated by a client with a different view — ask the directory and
	// probe whatever it names that has not been tried.
	for _, id := range p.registryLocate(ref.Key) {
		if slices.Contains(cands, id) {
			continue
		}
		if b, err := p.onShard(id, ref, op); err == nil {
			return b, id, nil
		}
	}
	if lastErr == nil {
		lastErr = dm.ErrBadRef
	}
	return nil, 0, lastErr
}

// onShard issues one leased read of ref against shard id. A success on
// anyone but the ref's own primary counts as a failover read (an ejected
// primary is skipped, not "tried first").
func (p *Client) onShard(id uint32, ref dm.Ref, op func(*live.Client) (*live.Buf, error)) (*live.Buf, error) {
	s, err := p.byID(id)
	if err != nil {
		return nil, err
	}
	b, err := op(s.cl)
	if err == nil && id != ref.Server {
		p.failoverReads.Add(1)
		s.failoverServed.Add(1)
	}
	return b, err
}

// ConsumeRefLeaseFrom is the last reader's fetch and free in one: a
// single-copy ref is consumed in one exchange on its shard; a replicated
// one is consumed from the first candidate that serves (failing over
// like a read), after which every other copy is freed — never before,
// so a consume that fails everywhere frees nothing. Like FreeRef it
// tombstones the cache key, unless the ref was refused as out of range
// (which frees nothing). The caller must Release the Buf exactly once.
func (p *Client) ConsumeRefLeaseFrom(ref dm.Ref, hints []uint32) (*live.Buf, error) {
	b, err := p.consume(ref, hints)
	if !errors.Is(err, dm.ErrOutOfRange) {
		p.cache.Deny(p.cacheKey(ref), time.Duration(p.cacheTTL.Load()))
	}
	return b, err
}

func (p *Client) consume(ref dm.Ref, hints []uint32) (*live.Buf, error) {
	if ref.Key&dmwire.ReplicaKeyBit == 0 {
		s, err := p.byID(ref.Server)
		if err != nil {
			return nil, err
		}
		return s.cl.ConsumeRefLease(ref)
	}
	var cb [candidatesInline]uint32
	cands := p.candidates(cb[:0], ref, hints)
	b, served, err := p.failover(ref, cands, func(cl *live.Client) (*live.Buf, error) {
		return cl.ConsumeRefLease(ref)
	})
	if err != nil {
		return nil, err
	}
	p.untrack(ref.Key)
	rest := slices.DeleteFunc(cands, func(id uint32) bool { return id == served })
	_ = p.freeOn(rest, ref) // copies already gone answer ErrBadRef; the consume stands
	return b, nil
}

// AdoptRefFrom moves ref to this session (adopt_ref): every copy is
// republished under a new key owned by this session on its shard,
// so the returned ref survives the producer's session reap and dies with
// this session's. ref's key is dead afterwards, and its cache key is
// tombstoned whatever the outcome. A single-copy ref moves in one
// exchange on its shard. A replicated one is adopted under one freshly
// minted key on every candidate shard in one fan-out. It succeeds when
// at least one copy moved; the old key is then freed on every candidate
// that failed for another reason than holding no copy, and the new key
// is tracked at the shards that moved theirs — off its ring placement,
// which the rebalancer restores as after a migration (DESIGN.md §D16).
func (p *Client) AdoptRefFrom(ref dm.Ref, hints []uint32) (dm.Ref, error) {
	defer p.cache.Deny(p.cacheKey(ref), time.Duration(p.cacheTTL.Load()))
	if ref.Key&dmwire.ReplicaKeyBit != 0 {
		return p.adoptReplicated(ref, hints)
	}
	s, err := p.byID(ref.Server)
	if err != nil {
		return dm.Ref{}, err
	}
	own, err := s.cl.AdoptRef(ref, 0, nil)
	if err != nil {
		return dm.Ref{}, err
	}
	own.Server = s.id
	return own, nil
}

func (p *Client) adoptReplicated(ref dm.Ref, hints []uint32) (dm.Ref, error) {
	var cb [candidatesInline]uint32
	cands := p.candidates(cb[:0], ref, hints)
	key := p.mintKey()
	var entry []uint32
	if p.cfg.RegistryHandoff {
		entry = cands
	}
	var buf [4]*live.AsyncRef
	futs := buf[:0]
	for _, id := range cands {
		var f *live.AsyncRef
		if s, err := p.byID(id); err == nil {
			f = s.cl.AdoptRefAsync(ref, key, entry)
		}
		futs = append(futs, f)
	}
	var adopted, rest []uint32
	var lastErr error
	for i, f := range futs {
		if f == nil {
			continue
		}
		switch _, err := f.Wait(); {
		case err == nil:
			adopted = append(adopted, cands[i])
		case errors.Is(err, dm.ErrBadRef):
			// this shard holds no copy
		default:
			// A transport failure or a key collision: the shard may still
			// hold its copy under the old key.
			lastErr = err
			rest = append(rest, cands[i])
		}
	}
	if len(adopted) == 0 {
		if lastErr == nil {
			lastErr = dm.ErrBadRef
		}
		return dm.Ref{}, lastErr
	}
	p.untrack(ref.Key)
	if len(rest) > 0 {
		_ = p.freeOn(rest, ref) // the adopt stands; a copy this misses dies with its producer's session
	}
	own := dm.Ref{Server: adopted[0], Key: key, Size: ref.Size}
	epoch := uint64(1)
	if p.cfg.RegistryHandoff && len(adopted) < len(cands) {
		// The entries name candidates that moved nothing: correct them at
		// epoch 2, as a partially placed stage does.
		epoch = 2
		p.regPublish(registry.Entry{Key: key, Size: own.Size, Epoch: epoch, Replicas: adopted})
	}
	p.track(key, own.Size, adopted, epoch)
	if len(adopted) < p.replicaFactor() {
		p.kickRepair()
	}
	return own, nil
}

// Forget drops a replicated ref from this client's repair set without
// touching the wire: for a ref this client staged that another process
// consumed or adopted, so the repairer does not keep maintaining a ref
// that no longer exists under its key.
func (p *Client) Forget(ref dm.Ref) {
	if ref.Key&dmwire.ReplicaKeyBit != 0 {
		p.untrack(ref.Key)
	}
}

// freeReplicated frees a replicated ref on every shard that may hold a
// copy. Replicas the repairer already lost race-free report dm.ErrBadRef
// and are ignored; the free succeeds when at least one copy was
// released.
func (p *Client) freeReplicated(ref dm.Ref) error {
	var cb [candidatesInline]uint32
	cands := p.candidates(cb[:0], ref, nil)
	p.untrack(ref.Key)
	return p.freeOn(cands, ref)
}

// freeOn frees ref's copy on every shard in ids, issuing all the frees
// before waiting on any, so R copies cost one round trip, not R. It
// succeeds when at least one copy was released.
func (p *Client) freeOn(ids []uint32, ref dm.Ref) error {
	freed := false
	var lastErr error
	var buf [4]*live.AsyncOp
	ops := buf[:0]
	for _, id := range ids {
		if s, err := p.byID(id); err == nil {
			ops = append(ops, s.cl.FreeRefAsync(ref))
		}
	}
	for _, op := range ops {
		switch err := op.Wait(); {
		case err == nil:
			freed = true
		case errors.Is(err, dm.ErrBadRef):
			// this shard never got (or already lost) its copy
		default:
			lastErr = err
		}
	}
	if freed {
		return nil
	}
	if lastErr != nil {
		return lastErr
	}
	return dm.ErrBadRef
}

// --- replicated staging ---

// maxStageAttempts bounds key re-mints on cross-client key collisions
// (a random 63-bit draw matching a foreign live ref — astronomically
// rare, but the loop must terminate).
const maxStageAttempts = 3

// stageReplicated stages data under key on the key's R ring
// successors. Every stage_at is started before any is waited on, so R
// copies cost one round trip, not R. Under RegistryHandoff every
// stage_at carries the target list, so each copy lands together with
// its shard's epoch-1 directory entry (§D16) and the handoff costs no
// exchange of its own. The stage succeeds when at least one copy lands
// (missing replicas are handed to the repairer); a key collision frees
// what landed and retries under a fresh key.
func (p *Client) stageReplicated(key uint64, data []byte, attempt int) (dm.Ref, error) {
	targets := p.ring.Successors(key, p.replicaFactor())
	if len(targets) == 0 {
		return dm.Ref{}, errNoShards
	}
	var entry []uint32
	if p.cfg.RegistryHandoff {
		entry = targets
	}
	var buf [4]*live.AsyncRef
	futs := buf[:0]
	for _, id := range targets {
		var f *live.AsyncRef
		if s, err := p.byID(id); err == nil {
			f = s.cl.StageRefAtAsync(key, entry, data)
		}
		futs = append(futs, f)
	}
	var placed []uint32
	var collided bool
	var lastErr error
	for i, f := range futs {
		if f == nil {
			continue
		}
		switch _, err := f.Wait(); {
		case err == nil:
			placed = append(placed, targets[i])
		case errors.Is(err, dm.ErrRefExists):
			collided = true
		default:
			lastErr = err
		}
	}
	if collided {
		// Another client owns this key. Roll back our copies (and the
		// directory entries they carried) and re-mint. Best effort: the
		// collision itself is a one-in-2^63 draw.
		_ = p.freeOn(placed, dm.Ref{Key: key, Size: int64(len(data))})
		if attempt+1 >= maxStageAttempts {
			return dm.Ref{}, dm.ErrRefExists
		}
		return p.stageReplicated(p.mintKey(), data, attempt+1)
	}
	if len(placed) == 0 {
		if lastErr == nil {
			lastErr = errNoShards
		}
		return dm.Ref{}, lastErr
	}
	ref := dm.Ref{Server: placed[0], Key: key, Size: int64(len(data))}
	// Under RegistryHandoff each copy landed with its directory entry, so
	// a fully placed ref is already cluster-owned.
	partial := len(placed) < len(targets)
	epoch := uint64(1)
	if partial && p.cfg.RegistryHandoff {
		// The entries name targets that hold nothing, and equal epochs
		// are first-writer-wins: correct them at epoch 2 (the repairer's
		// later flip lands at 3).
		epoch = 2
		p.regPublish(registry.Entry{Key: key, Size: ref.Size, Epoch: epoch, Replicas: placed})
	}
	p.track(key, ref.Size, placed, epoch)
	if partial {
		p.kickRepair() // born under-replicated
	}
	return ref, nil
}

// regPublish merges ent into the directory of every shard it names
// (best-effort: a missed shard converges later via anti-entropy sync).
func (p *Client) regPublish(ent registry.Entry) {
	for _, id := range ent.Replicas {
		if s, err := p.byID(id); err == nil && s.healthy.Load() {
			s.cl.RegPut(ent)
		}
	}
}

// --- repair ---

// kickRepair schedules an immediate repair pass (coalescing with any
// pass already pending).
func (p *Client) kickRepair() {
	select {
	case p.repairKick <- struct{}{}:
	default:
	}
}

// repairBytesPerSec bounds the background repairer's copy bandwidth so
// repair never starves foreground traffic.
const repairBytesPerSec = 32 << 20

// repairLoop is the background repairer: woken by topology changes
// (ejection and rejoin kick it) and by the periodic scan, it walks the
// tracked refs and restores full replication.
func (p *Client) repairLoop() {
	defer p.wg.Done()
	interval := p.cfg.RepairInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	var tickC <-chan time.Time
	if interval > 0 {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-p.stop:
			return
		case <-p.repairKick:
		case <-tickC:
		}
		if p.cfg.RegistryHandoff {
			p.syncPass()
		}
		p.repairPass()
	}
}

// poolShardOps adapts the pool client to the migration engine's
// cluster view (migrate.ShardOps): shard-to-shard copies run as a read
// from the source followed by a staged re-put on the target, all over
// this client's per-shard sessions.
type poolShardOps struct{ p *Client }

func (o poolShardOps) Healthy(id uint32) bool {
	shards := o.p.shardList()
	return int(id) < len(shards) && shards[id].healthy.Load()
}

func (o poolShardOps) ReadRef(id uint32, key uint64, size, off int64, dst []byte) error {
	s, err := o.p.byID(id)
	if err != nil {
		return err
	}
	return s.cl.ReadRef(dm.Ref{Key: key, Size: size}, off, dst)
}

func (o poolShardOps) StageAt(id uint32, key uint64, data []byte) error {
	s, err := o.p.byID(id)
	if err != nil {
		return err
	}
	_, err = s.cl.StageRefAt(key, data)
	return err
}

func (o poolShardOps) FreeRef(id uint32, key uint64) error {
	s, err := o.p.byID(id)
	if err != nil {
		return err
	}
	return s.cl.FreeRef(dm.Ref{Key: key})
}

func (o poolShardOps) RegPut(id uint32, ent registry.Entry) error {
	s, err := o.p.byID(id)
	if err != nil {
		return err
	}
	return s.cl.RegPut(ent)
}

// placements snapshots the tracked refs as planner input.
func (p *Client) placements() []migrate.Placement {
	p.refMu.Lock()
	out := make([]migrate.Placement, 0, len(p.refs))
	for k, m := range p.refs {
		out = append(out, migrate.Placement{
			Key:   k,
			Size:  m.size,
			Epoch: m.epoch,
			Have:  append([]uint32(nil), m.replicas...),
		})
	}
	p.refMu.Unlock()
	return out
}

// repairPass is the unified repair/rebalance pass (DESIGN.md §D13,
// §D16): the planner diffs every tracked ref's believed placement
// against the CURRENT ring successors of its key (the Kademlia
// republish rule) and the executor converges them — re-staging missing
// copies exactly as the old repairer did, and additionally migrating
// refs whose wanted placement moved (a joined or rejoined shard, a
// ReplicaFactor change): copy to the newcomers, flip the directory
// entry, then reclaim the surplus copies the repair-only model used to
// leak. Copies are paced against the repair-bandwidth budget; a
// re-stage answered with dm.ErrRefExists means another repairer beat
// us — success, not failure.
func (p *Client) repairPass() {
	r := p.replicaFactor()
	if r <= 1 {
		return
	}
	moves := migrate.Plan(p.placements(), func(key uint64) []uint32 {
		return p.ring.Successors(key, r)
	})
	if len(moves) == 0 {
		return
	}
	movedKeys := make(map[uint64]struct{}, len(moves))
	ex := &migrate.Executor{
		Ops:         poolShardOps{p},
		BytesPerSec: repairBytesPerSec,
		Stop:        p.stop,
		Registry:    p.cfg.RegistryHandoff,
		// The plan is a snapshot; a ref freed since planning must not be
		// resurrected by a stale copy.
		Skip: func(key uint64) bool {
			p.refMu.Lock()
			_, ok := p.refs[key]
			p.refMu.Unlock()
			return !ok
		},
		OnCopied: func(key uint64, id uint32, size int64, fresh bool) {
			if fresh {
				p.repairBytes.Add(size)
			}
			p.repairsDone.Add(1)
			if s, err := p.byID(id); err == nil {
				s.repairsIn.Add(1)
			}
			p.addReplica(key, id)
		},
		OnDropped: func(key uint64, id uint32) {
			p.dropReplica(key, id)
			p.reclaimedReplicas.Add(1)
			movedKeys[key] = struct{}{}
		},
		OnFlip: func(key, epoch uint64, want []uint32) {
			p.setEpoch(key, epoch)
		},
		OnUnreadable: func(key uint64) {
			// Every believed copy is provably gone. If the directory has no
			// entry either, the ref was freed by another client after we
			// learned of it (an anti-entropy ghost) — stop tracking it, or
			// the pass would chase it forever.
			if p.cfg.RegistryHandoff && len(p.registryLocate(key)) == 0 {
				p.untrack(key)
			}
		},
	}
	res := ex.Run(moves)
	p.repairErrors.Add(int64(res.Errors))
	p.migratedRefs.Add(int64(res.MovedRefs))
	p.migratedBytes.Add(int64(res.MovedBytes))
}

// syncPass is the anti-entropy half of the registry handoff (§D16): it
// pages each healthy shard's directory (resuming from a per-shard
// cursor) and adopts entries this client does not track — refs staged
// by clients that have since departed. Adoption puts them on this
// client's repair work list, so the cluster keeps them replicated and
// migrates them like its own. The page also covers a key range, and an
// adopted ref in that range that names the shard but is missing from the
// page is forgotten, so the mirror forgets what other clients free.
func (p *Client) syncPass() {
	const pageLimit = dmwire.MaxRegSyncEntries
	for _, s := range p.shardList() {
		select {
		case <-p.stop:
			return
		default:
		}
		if !s.healthy.Load() {
			continue
		}
		p.refMu.Lock()
		after := p.syncCursors[s.id]
		p.refMu.Unlock()
		page, err := s.cl.RegSync(after, pageLimit)
		if err != nil {
			continue // partitioned mid-sync; retry next pass
		}
		for _, ent := range page {
			p.adopt(ent)
		}
		p.refMu.Lock()
		if len(page) < pageLimit {
			p.forgetMissing(s.id, page, after, math.MaxUint64)
			p.syncCursors[s.id] = 0 // wrapped: restart from the top next pass
		} else {
			last := page[len(page)-1].Key
			p.forgetMissing(s.id, page, after, last)
			p.syncCursors[s.id] = last
		}
		p.refMu.Unlock()
	}
}

// Rebalance runs one synchronous repair/rebalance pass (plus an
// anti-entropy sync under RegistryHandoff) and reports what it did —
// the dmctl `pool rebalance` entry point. The background repairer runs
// the same pass; this just gives operators a deliberate trigger and a
// result to look at.
func (p *Client) Rebalance() RebalanceResult {
	before := RebalanceResult{
		MigratedRefs:      p.migratedRefs.Load(),
		MigratedBytes:     p.migratedBytes.Load(),
		ReclaimedReplicas: p.reclaimedReplicas.Load(),
		RepairsDone:       p.repairsDone.Load(),
		Errors:            p.repairErrors.Load(),
	}
	if p.cfg.RegistryHandoff {
		p.syncPass()
	}
	p.repairPass()
	res := RebalanceResult{
		MigratedRefs:      p.migratedRefs.Load() - before.MigratedRefs,
		MigratedBytes:     p.migratedBytes.Load() - before.MigratedBytes,
		ReclaimedReplicas: p.reclaimedReplicas.Load() - before.ReclaimedReplicas,
		RepairsDone:       p.repairsDone.Load() - before.RepairsDone,
		Errors:            p.repairErrors.Load() - before.Errors,
	}
	res.TrackedRefs, res.OffPlacement = p.auditPlacement()
	return res
}

// RebalanceResult is one Rebalance call's delta plus a placement audit.
type RebalanceResult struct {
	MigratedRefs      int64 `json:"migrated_refs"`
	MigratedBytes     int64 `json:"migrated_bytes"`
	ReclaimedReplicas int64 `json:"reclaimed_replicas"`
	RepairsDone       int64 `json:"repairs_done"`
	Errors            int64 `json:"errors"`
	TrackedRefs       int   `json:"tracked_refs"`
	OffPlacement      int   `json:"off_placement"`
}

// auditPlacement counts tracked refs whose believed replica set is not
// exactly the ring's wanted placement (the off-ring fraction dmload and
// BenchmarkPoolRebalance report). Zero off-placement means migration
// has fully converged.
func (p *Client) auditPlacement() (total, offPlacement int) {
	r := p.replicaFactor()
	for _, pl := range p.placements() {
		total++
		want := p.ring.Successors(pl.Key, r)
		if len(want) != len(pl.Have) {
			offPlacement++
			continue
		}
		wantSet := make(map[uint32]struct{}, len(want))
		for _, id := range want {
			wantSet[id] = struct{}{}
		}
		ok := true
		for _, id := range pl.Have {
			if _, in := wantSet[id]; !in {
				ok = false
				break
			}
		}
		if !ok {
			offPlacement++
		}
	}
	return total, offPlacement
}

// --- observability ---

// UnderReplicated is the repair-progress gauge: the number of tracked
// replicated refs with fewer live replicas than the target (R, or the
// current member count when the ring has shrunk below R). It returns to
// zero when repair has converged.
func (p *Client) UnderReplicated() int {
	r := p.replicaFactor()
	if r <= 1 {
		return 0
	}
	members := p.ring.Size()
	want := r
	if members < want {
		want = members
	}
	if want == 0 {
		return 0
	}
	n := 0
	shards := p.shardList()
	p.refMu.Lock()
	defer p.refMu.Unlock()
	for _, m := range p.refs {
		alive := 0
		for _, id := range m.replicas {
			if int(id) < len(shards) && shards[id].healthy.Load() {
				alive++
			}
		}
		if alive < want {
			n++
		}
	}
	return n
}

// ReplicaFactorEffective returns the effective replica factor (>= 1;
// the configured R clamped into its valid range at Dial).
func (p *Client) ReplicaFactorEffective() int { return p.replicaFactor() }

// TrackedRefs returns the number of replicated refs this client is
// responsible for repairing.
func (p *Client) TrackedRefs() int {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	return len(p.refs)
}

// FailoverReads returns how many reads were served by a non-primary
// replica after the first-choice shard failed.
func (p *Client) FailoverReads() int64 { return p.failoverReads.Load() }

// RepairsDone returns how many replica copies the repairer has restored
// (including re-stages another repairer won).
func (p *Client) RepairsDone() int64 { return p.repairsDone.Load() }

// RepairErrors returns how many repair reads/stages failed.
func (p *Client) RepairErrors() int64 { return p.repairErrors.Load() }

// RepairBytes returns the payload bytes the repairer has copied.
func (p *Client) RepairBytes() int64 { return p.repairBytes.Load() }

// MigratedRefs returns how many refs the rebalancer has moved onto
// their wanted ring placement (copy + flip + reclaim; §D16).
func (p *Client) MigratedRefs() int64 { return p.migratedRefs.Load() }

// MigratedBytes returns the payload bytes staged by those migrations.
func (p *Client) MigratedBytes() int64 { return p.migratedBytes.Load() }

// ReclaimedReplicas returns how many surplus replica copies the
// rebalancer has freed — the copies the repair-only model leaked.
func (p *Client) ReclaimedReplicas() int64 { return p.reclaimedReplicas.Load() }

// RegistryEntries pages one shard's authoritative directory: up to
// limit entries with Key > afterKey in key order (the server caps a
// page at dmwire.MaxRegSyncEntries). It is the raw anti-entropy read
// that syncPass and dmctl's `pool registry` dump are built on.
func (p *Client) RegistryEntries(shard uint32, afterKey uint64, limit int) ([]registry.Entry, error) {
	s, err := p.byID(shard)
	if err != nil {
		return nil, err
	}
	return s.cl.RegSync(afterKey, limit)
}

// RegistryLookup queries one shard's directory for a single key;
// dm.ErrBadRef means that shard holds no entry for it.
func (p *Client) RegistryLookup(shard uint32, key uint64) (registry.Entry, error) {
	s, err := p.byID(shard)
	if err != nil {
		return registry.Entry{}, err
	}
	return s.cl.RegGet(key)
}

// ReplicaStat is one shard's replication counters (dmctl pool stats).
type ReplicaStat struct {
	Shard   uint32
	Healthy bool
	// RefsPrimary counts tracked refs whose first replica (the Server
	// field handed to the application) is this shard.
	RefsPrimary int
	// RefsReplica counts tracked replica copies on this shard, primary
	// included.
	RefsReplica int
	// FailoverReads counts reads this shard served as a fallback replica.
	FailoverReads int64
	// RepairsIn counts replica copies repaired onto this shard.
	RepairsIn int64
}

// ReplicaStats snapshots per-shard replication counters, indexed by
// shard ID.
func (p *Client) ReplicaStats() []ReplicaStat {
	shards := p.shardList()
	out := make([]ReplicaStat, len(shards))
	for i, s := range shards {
		out[i] = ReplicaStat{
			Shard:         s.id,
			Healthy:       s.healthy.Load(),
			FailoverReads: s.failoverServed.Load(),
			RepairsIn:     s.repairsIn.Load(),
		}
	}
	p.refMu.Lock()
	for _, m := range p.refs {
		for j, id := range m.replicas {
			if int(id) >= len(out) {
				continue
			}
			out[id].RefsReplica++
			if j == 0 {
				out[id].RefsPrimary++
			}
		}
	}
	p.refMu.Unlock()
	return out
}
