// Package migrate is the DM pool's live migration engine (DESIGN.md
// §D16): the planner diffs current replica placement against the ring's
// wanted placement and emits a bounded plan; the executor copies
// payloads shard-to-shard, flips the registry entry, and only then
// reclaims surplus replicas — fixing the repair-only-adds leak while
// preserving the zero-loss invariant (at every instant each ref is
// readable from at least one shard, and reads fail over through both
// old and new locations for the duration of the window).
//
// The package is deliberately transport-free: it drives an abstract
// ShardOps (the pool client adapts itself behind it), so the state
// machine is unit-testable against an in-memory fake and never imports
// live or pool.
//
// Move state machine, per ref:
//
//	COPY    stage the payload onto every wanted shard missing a copy
//	        (dm.ErrRefExists from a racing repairer counts as success)
//	VERIFY  before any reclaim, prove every wanted shard really holds
//	        the payload — a 1-byte probe read, re-staging on a miss;
//	        if any wanted copy cannot be confirmed the drops are
//	        skipped (surplus is a leak, loss is forever)
//	FLIP    publish the new placement to the wanted shards' registry
//	        slices at a bumped epoch, so the directory points at the
//	        new copies before the old ones disappear; a move with
//	        nothing to drop (a repair) publishes the shards that hold a
//	        copy, so each new copy is registry-owned like a staged one
//	DROP    free the surplus replicas; each free also retires that
//	        shard's directory entry
//
// Copies are paced against a bytes/sec budget between moves so a large
// backlog cannot starve foreground traffic.
package migrate

import (
	"errors"
	"slices"
	"time"

	"repro/internal/dm"
	"repro/internal/registry"
)

// Placement is one ref's current believed placement — the planner's
// input, typically a snapshot of the pool client's tracked refs or a
// shard registry page.
type Placement struct {
	Key   uint64
	Size  int64
	Epoch uint64
	// Have lists the shards believed to hold a copy, primary first.
	Have []uint32
}

// Move is one planned ref migration.
type Move struct {
	Key   uint64
	Size  int64
	Epoch uint64
	// Want is the full wanted replica set (ring successors), in ring
	// order — the placement the registry flip publishes.
	Want []uint32
	// Sources are shards believed to hold a copy now (= Placement.Have);
	// the executor reads from the first healthy one.
	Sources []uint32
	// CopyTo are wanted shards missing a copy.
	CopyTo []uint32
	// DropFrom are surplus shards holding a copy outside the wanted set.
	DropFrom []uint32
}

// Plan diffs each placement against want(key) and emits the moves that
// would converge them. Refs already on their wanted shards (and nothing
// else) produce no move. The input order is preserved.
func Plan(cur []Placement, want func(key uint64) []uint32) []Move {
	var moves []Move
	for _, pl := range cur {
		w := want(pl.Key)
		if len(w) == 0 {
			continue // no members to place on; nothing sane to do
		}
		haveSet := make(map[uint32]struct{}, len(pl.Have))
		for _, id := range pl.Have {
			haveSet[id] = struct{}{}
		}
		wantSet := make(map[uint32]struct{}, len(w))
		var copyTo []uint32
		for _, id := range w {
			wantSet[id] = struct{}{}
			if _, has := haveSet[id]; !has {
				copyTo = append(copyTo, id)
			}
		}
		var dropFrom []uint32
		for _, id := range pl.Have {
			if _, wanted := wantSet[id]; !wanted {
				dropFrom = append(dropFrom, id)
			}
		}
		if len(copyTo) == 0 && len(dropFrom) == 0 {
			continue
		}
		moves = append(moves, Move{
			Key:      pl.Key,
			Size:     pl.Size,
			Epoch:    pl.Epoch,
			Want:     append([]uint32(nil), w...),
			Sources:  append([]uint32(nil), pl.Have...),
			CopyTo:   copyTo,
			DropFrom: dropFrom,
		})
	}
	return moves
}

// ShardOps is the executor's view of the cluster — implemented by the
// pool client (shard-to-shard copy via staged re-put) and by test
// fakes. Shard IDs are cluster-wide.
type ShardOps interface {
	// Healthy reports whether the shard is believed alive; the executor
	// never stages onto, probes, or frees from an unhealthy shard.
	Healthy(shard uint32) bool
	// ReadRef reads [off, off+len(dst)) of key's payload from shard.
	ReadRef(shard uint32, key uint64, size int64, off int64, dst []byte) error
	// StageAt places data under key on shard; dm.ErrRefExists means a
	// copy is already there (success for migration purposes).
	StageAt(shard uint32, key uint64, data []byte) error
	// FreeRef releases key's copy (and directory entry) on shard;
	// dm.ErrBadRef means the copy was already gone.
	FreeRef(shard uint32, key uint64) error
	// RegPut merges a directory entry into shard's registry slice.
	RegPut(shard uint32, ent registry.Entry) error
}

// Executor runs a plan against ShardOps.
type Executor struct {
	Ops ShardOps
	// BytesPerSec paces copies between moves (0 = unpaced).
	BytesPerSec int64
	// Stop aborts the run between moves when closed.
	Stop <-chan struct{}
	// Registry enables the FLIP step: publish the new placement (at
	// Epoch+1) to every wanted shard before dropping surplus copies.
	Registry bool
	// Skip, when set, is consulted immediately before each move runs and
	// again after each copy lands; a true return drops the move (and the
	// copy). Plans are snapshots, so the caller uses this to fence refs
	// freed after planning — without it a stale move would resurrect a
	// freed ref by re-staging its payload.
	Skip func(key uint64) bool

	// OnCopied, when set, fires for each wanted shard confirmed to hold
	// a copy this move — fresh reports whether the executor staged the
	// bytes (false: a racing repairer had already landed them).
	OnCopied func(key uint64, shard uint32, size int64, fresh bool)
	// OnDropped fires for each surplus replica reclaimed.
	OnDropped func(key uint64, shard uint32)
	// OnFlip fires after the registry placement flip for a move.
	OnFlip func(key uint64, epoch uint64, want []uint32)
	// OnUnreadable fires when a move needed the payload and EVERY source
	// answered dm.ErrBadRef — the copies are provably gone (freed by
	// another client), not merely unreachable. The caller can then scrub
	// the ref from its work list; transport errors never trigger this.
	OnUnreadable func(key uint64)
}

// Result summarizes one executed plan.
type Result struct {
	// MovedRefs counts refs that both gained a wanted copy and shed a
	// surplus one — true migrations, not mere repairs or reclaims.
	MovedRefs int
	// MovedBytes counts payload bytes staged during those migrations.
	MovedBytes int64
	// CopiedReplicas counts wanted copies confirmed (staged or found).
	CopiedReplicas int
	// CopiedBytes counts payload bytes the executor actually staged.
	CopiedBytes int64
	// ReclaimedReplicas counts surplus copies freed.
	ReclaimedReplicas int
	// SkippedDrops counts surplus copies retained because a wanted copy
	// could not be verified (the zero-loss guard).
	SkippedDrops int
	// Errors counts failed reads, stages, frees and flips.
	Errors int
}

// Run executes the plan move by move. It returns early (with the
// partial result) when Stop closes.
func (e *Executor) Run(moves []Move) Result {
	var res Result
	for _, mv := range moves {
		select {
		case <-e.stopC():
			return res
		default:
		}
		if e.Skip != nil && e.Skip(mv.Key) {
			continue
		}
		staged := e.runMove(mv, &res)
		if e.BytesPerSec > 0 && staged > 0 {
			d := time.Duration(float64(staged) / float64(e.BytesPerSec) * float64(time.Second))
			t := time.NewTimer(d)
			select {
			case <-e.stopC():
				t.Stop()
				return res
			case <-t.C:
			}
		}
	}
	return res
}

// freedMidCopy reports whether the ref was freed while a copy to id was
// in flight, and if so takes that copy back: the free may have probed id
// before the copy landed, so nobody else would reclaim it, and keeping it
// would resurrect the ref.
func (e *Executor) freedMidCopy(id uint32, key uint64) bool {
	if e.Skip == nil || !e.Skip(key) {
		return false
	}
	e.Ops.FreeRef(id, key)
	return true
}

// stopC returns the stop channel (nil-safe: a nil Stop never fires).
func (e *Executor) stopC() <-chan struct{} { return e.Stop }

// runMove executes one move and returns the bytes staged (for pacing).
func (e *Executor) runMove(mv Move, res *Result) int64 {
	// COPY: land the payload on every wanted shard missing it.
	// confirmed tracks wanted shards proven to hold a copy this move.
	confirmed := make(map[uint32]bool, len(mv.Want))
	var staged int64
	var payload []byte
	load := func() bool {
		if payload != nil {
			return true
		}
		buf := make([]byte, mv.Size)
		gone := true // every source so far answered ErrBadRef
		tried := 0
		for _, src := range e.healthyFirst(mv.Sources) {
			tried++
			err := e.Ops.ReadRef(src, mv.Key, mv.Size, 0, buf)
			if err == nil {
				payload = buf
				return true
			}
			if !errors.Is(err, dm.ErrBadRef) {
				gone = false
			}
		}
		if gone && tried > 0 && e.OnUnreadable != nil {
			e.OnUnreadable(mv.Key)
		}
		return false
	}
	if len(mv.CopyTo) > 0 {
		if !e.anyHealthy(mv.Sources) {
			return 0 // nothing live to copy from; retry next pass
		}
		if !load() {
			res.Errors++
			return 0
		}
		for _, tgt := range mv.CopyTo {
			if !e.Ops.Healthy(tgt) {
				continue
			}
			switch err := e.Ops.StageAt(tgt, mv.Key, payload); {
			case err == nil && e.freedMidCopy(tgt, mv.Key):
				return staged
			case err == nil:
				staged += mv.Size
				res.CopiedBytes += mv.Size
				confirmed[tgt] = true
				res.CopiedReplicas++
				if e.OnCopied != nil {
					e.OnCopied(mv.Key, tgt, mv.Size, true)
				}
			case errors.Is(err, dm.ErrRefExists):
				confirmed[tgt] = true
				res.CopiedReplicas++
				if e.OnCopied != nil {
					e.OnCopied(mv.Key, tgt, mv.Size, false)
				}
			default:
				res.Errors++
			}
		}
	}
	if len(mv.DropFrom) == 0 {
		// A repair: nothing to reclaim, but each new copy's shard still
		// needs the ref's directory entry, or its lease reap sweeps the
		// copy together with the session that staged it.
		if e.Registry && len(confirmed) > 0 {
			held := make([]uint32, 0, len(mv.Want))
			for _, id := range mv.Want {
				if confirmed[id] || slices.Contains(mv.Sources, id) {
					held = append(held, id)
				}
			}
			e.flip(mv, held, res)
		}
		return staged
	}

	// VERIFY: reclaim is irreversible, so every wanted copy must be
	// proven before any surplus copy is freed. Shards just staged are
	// proven; believed copies get a 1-byte probe (re-staged on a miss —
	// the belief may be stale after a silent shard restart). Probes only
	// run when there is something to drop, so the steady state pays
	// nothing.
	probe := make([]byte, 1)
	for _, id := range mv.Want {
		if confirmed[id] {
			continue
		}
		if !e.Ops.Healthy(id) {
			res.SkippedDrops += len(mv.DropFrom)
			return staged
		}
		n := int64(len(probe))
		if mv.Size < n {
			n = mv.Size
		}
		if err := e.Ops.ReadRef(id, mv.Key, mv.Size, 0, probe[:n]); err == nil {
			confirmed[id] = true
			continue
		}
		if !load() {
			res.Errors++
			res.SkippedDrops += len(mv.DropFrom)
			return staged
		}
		switch err := e.Ops.StageAt(id, mv.Key, payload); {
		case err == nil && e.freedMidCopy(id, mv.Key):
			// The probe most likely missed because of that free.
			return staged
		case err == nil:
			staged += mv.Size
			res.CopiedBytes += mv.Size
			confirmed[id] = true
			res.CopiedReplicas++
			if e.OnCopied != nil {
				e.OnCopied(mv.Key, id, mv.Size, true)
			}
		case errors.Is(err, dm.ErrRefExists):
			confirmed[id] = true
		default:
			res.Errors++
			res.SkippedDrops += len(mv.DropFrom)
			return staged
		}
	}

	// FLIP: point the directory at the new placement before the old
	// copies disappear — a reader racing the drop resolves either the
	// old location (copy still there) or the new one (already staged).
	e.flip(mv, mv.Want, res)

	// DROP: reclaim the surplus. A copy already gone (ErrBadRef) still
	// counts as reclaimed — someone beat us to it.
	dropped := 0
	for _, id := range mv.DropFrom {
		if !e.Ops.Healthy(id) {
			res.SkippedDrops++
			continue // an unreachable shard's copy is reclaimed after rejoin
		}
		switch err := e.Ops.FreeRef(id, mv.Key); {
		case err == nil, errors.Is(err, dm.ErrBadRef):
			dropped++
			res.ReclaimedReplicas++
			if e.OnDropped != nil {
				e.OnDropped(mv.Key, id)
			}
		default:
			res.Errors++
		}
	}
	if dropped > 0 && len(mv.CopyTo) > 0 {
		res.MovedRefs++
		res.MovedBytes += staged
	}
	return staged
}

// flip publishes replicas as key's placement at the move's next epoch to
// every healthy shard it names (under Registry) and reports it to OnFlip.
func (e *Executor) flip(mv Move, replicas []uint32, res *Result) {
	epoch := mv.Epoch + 1
	if e.Registry {
		for _, id := range replicas {
			if !e.Ops.Healthy(id) {
				continue
			}
			if err := e.Ops.RegPut(id, registry.Entry{
				Key: mv.Key, Size: mv.Size, Epoch: epoch, Replicas: replicas,
			}); err != nil {
				res.Errors++
			}
		}
	}
	if e.OnFlip != nil {
		e.OnFlip(mv.Key, epoch, replicas)
	}
}

// healthyFirst orders ids healthy-first, preserving relative order
// within each class; an "unhealthy" source is still worth trying last
// (ejection is a heartbeat verdict, not proof of death).
func (e *Executor) healthyFirst(ids []uint32) []uint32 {
	out := make([]uint32, 0, len(ids))
	var sick []uint32
	for _, id := range ids {
		if e.Ops.Healthy(id) {
			out = append(out, id)
		} else {
			sick = append(sick, id)
		}
	}
	return append(out, sick...)
}

func (e *Executor) anyHealthy(ids []uint32) bool {
	for _, id := range ids {
		if e.Ops.Healthy(id) {
			return true
		}
	}
	return false
}
