package pool

import (
	"repro/internal/dm"
	"repro/internal/live"
)

// Asynchronous variants, mirroring live.Client's PR-4 pipelining
// surface: the pool routes up front, the shard's own client puts the
// frame on the wire immediately, and Wait carries the shard's retry and
// dedup semantics unchanged. Futures returned for located refs rewrite
// Ref.Server to the shard ID at Wait time. At ReplicaFactor > 1, stage
// futures fan the payload out to every replica shard; by-ref read
// futures fall back to the pool's one read path (replica.go) at Wait
// time.

// AsyncRef is an in-flight StageRefAsync; Wait must be called exactly
// once and yields a located ref.
type AsyncRef struct {
	inner *live.AsyncRef
	shard uint32
	rep   *repStage // replicated fan-out (replica.go); nil at R=1
	err   error
}

// Wait blocks for the staging result.
func (ar *AsyncRef) Wait() (dm.Ref, error) {
	if ar.err != nil {
		return dm.Ref{}, ar.err
	}
	if ar.rep != nil {
		return ar.rep.wait()
	}
	ref, err := ar.inner.Wait()
	if err != nil {
		return dm.Ref{}, err
	}
	ref.Server = ar.shard
	return ref, nil
}

// StageRefAsync starts staging data onto a ring-chosen shard (or, at
// ReplicaFactor > 1, onto every replica shard of a minted cluster key)
// and returns a future for the located ref. data must stay valid and
// unmodified until Wait returns.
func (p *Client) StageRefAsync(data []byte) *AsyncRef {
	if p.replicaFactor() > 1 {
		return p.stageReplicatedAsync(data, 0)
	}
	return p.StageRefKeyedAsync(p.cursor.Add(1), data)
}

// StageRefKeyedAsync is StageRefAsync with explicit placement (see
// StageRefKeyed; the key is ignored at ReplicaFactor > 1).
func (p *Client) StageRefKeyedAsync(key uint64, data []byte) *AsyncRef {
	if p.replicaFactor() > 1 {
		return p.stageReplicatedAsync(data, 0)
	}
	s, err := p.route(key)
	if err != nil {
		return &AsyncRef{err: err}
	}
	return &AsyncRef{inner: s.cl.StageRefAsync(data), shard: s.id}
}

// AsyncOp is one in-flight asynchronous pool operation; Wait must be
// called exactly once.
type AsyncOp struct {
	inner *live.AsyncOp
	// fallback, when set, finishes the operation synchronously: on its
	// own when there is no in-flight attempt, or after the in-flight
	// attempt failed with a failover-worthy error.
	fallback func() error
	err      error
}

// Wait blocks for the operation's result.
func (op *AsyncOp) Wait() error {
	if op.err != nil {
		return op.err
	}
	if op.inner == nil {
		return op.fallback()
	}
	err := op.inner.Wait()
	if err == nil || op.fallback == nil || !failoverWorthy(err) {
		return err
	}
	if ferr := op.fallback(); ferr == nil || !failoverWorthy(ferr) {
		return ferr
	}
	return err // nobody else could serve it either: the primary's answer stands
}

// ReadRefAsync starts a by-ref read into dst and returns a future; dst
// is filled when Wait returns nil. With the cache off the read is
// pipelined to the ref's primary shard, and Wait falls back to the
// synchronous read path over the remaining replicas only if that attempt
// fails. With the cache on there is nothing to put on the wire yet — a
// hit or a tombstone needs no RPC and a miss must load through the
// cache's singleflight — so the whole read resolves in Wait.
func (p *Client) ReadRefAsync(ref dm.Ref, off int64, dst []byte) *AsyncOp {
	s, err := p.byID(ref.Server)
	if err != nil || p.cache != nil {
		// An unresolvable primary may still be readable through replicas.
		return &AsyncOp{fallback: func() error { return p.readInto(ref, nil, off, dst, noShard) }}
	}
	return &AsyncOp{
		inner:    s.cl.ReadRefAsync(ref, off, dst),
		fallback: func() error { return p.readInto(ref, nil, off, dst, ref.Server) },
	}
}

// WriteAsync starts an rwrite of src at addr on its shard and returns a
// future. src must stay valid and unmodified until Wait returns.
func (p *Client) WriteAsync(addr dm.RemoteAddr, src []byte) *AsyncOp {
	id, raw := splitShard(addr)
	s, err := p.byID(id)
	if err != nil {
		return &AsyncOp{err: err}
	}
	return &AsyncOp{inner: s.cl.WriteAsync(raw, src)}
}
