package liverpc

import (
	"errors"
	"fmt"

	"repro/internal/dm"
	"repro/internal/dmwire"
)

// Payload is a size-aware service-call argument or result: small values
// travel inline inside the call envelope; large values are staged once
// into the DM server pool and flow through the rest of the call chain as
// a ~21-byte Ref descriptor, materialized only where actually consumed
// (paper §IV-B). Payloads are plain values, safe to copy.
type Payload struct {
	isRef    bool
	ref      dm.Ref
	replicas []uint32 // replica-hint shard IDs (replicated refs)
	inline   []byte
}

// Inline builds a pass-by-value payload. The bytes are aliased, not
// copied; treat them as read-only while the payload is in flight.
func Inline(data []byte) Payload { return Payload{inline: data} }

// ByRef wraps an already-staged cluster-addressed ref (Ref.Server is a
// shard ID) as a payload, together with the shard IDs believed to hold
// its copies (DM.Replicas). It travels as a located dmwire call arg
// carrying the list, so any endpoint sharing the cluster map can resolve
// it and fail a read over to a surviving replica even if its own map
// lags. Fewer than two shards carry no list.
func ByRef(ref dm.Ref, shards []uint32) Payload {
	if len(shards) < 2 {
		return Payload{isRef: true, ref: ref}
	}
	cp := shards
	if len(cp) > dmwire.MaxRefReplicas {
		cp = cp[:dmwire.MaxRefReplicas]
	}
	return Payload{isRef: true, ref: ref, replicas: append([]uint32(nil), cp...)}
}

// U64 builds an inline payload holding one big-endian uint64 — the
// common shape of small results (counts, ids, aggregates).
func U64(v uint64) Payload {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	return Inline(b)
}

// AsU64 decodes a U64 payload.
func (p Payload) AsU64() (uint64, error) {
	if p.isRef || len(p.inline) != 8 {
		return 0, fmt.Errorf("liverpc: payload is not a u64")
	}
	var v uint64
	for _, b := range p.inline {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// IsRef reports whether the payload passes by reference.
func (p Payload) IsRef() bool { return p.isRef }

// Replicas returns the replica-hint shard IDs carried by a replicated
// ref payload (nil for unreplicated payloads), aliased.
func (p Payload) Replicas() []uint32 { return p.replicas }

// Ref returns the underlying Ref; valid only when IsRef.
func (p Payload) Ref() dm.Ref { return p.ref }

// Inline returns the inline bytes (nil for ref payloads), aliased.
func (p Payload) Inline() []byte {
	if p.isRef {
		return nil
	}
	return p.inline
}

// Size returns the logical payload length in bytes.
func (p Payload) Size() int64 {
	if p.isRef {
		return p.ref.Size
	}
	return int64(len(p.inline))
}

// WireSize returns how many bytes the payload occupies inside a call
// envelope (dmwire.CallArg.WireSize).
func (p Payload) WireSize() int { return p.Wire().WireSize() }

func (p Payload) String() string {
	if len(p.replicas) > 0 {
		return fmt.Sprintf("payload(shards %v %v)", p.replicas, p.ref)
	}
	if p.isRef {
		return fmt.Sprintf("payload(shard %d %v)", p.ref.Server, p.ref)
	}
	return fmt.Sprintf("payload(inline %dB)", len(p.inline))
}

// Wire converts to the envelope codec's descriptor, making Payload a
// dmwire.Arg: the encoders write a []Payload without an intermediate
// []dmwire.CallArg.
func (p Payload) Wire() dmwire.CallArg {
	if p.isRef {
		return dmwire.CallArg{IsRef: true, Located: true, Ref: p.ref, Replicas: p.replicas}
	}
	return dmwire.CallArg{Inline: p.inline}
}

// errUnlocatedRef refuses a ref argument without a cluster location
// (the unlocated call-arg form): its Ref.Server means nothing to a
// cluster backend, so resolving it could read another shard's pages.
var errUnlocatedRef = errors.New("liverpc: unlocated ref payload refused")

// fromWire converts a decoded argument, aliasing its inline bytes and
// taking over its replica list, which the decoder allocated afresh. A
// ref argument that is not located is refused.
func fromWire(a dmwire.CallArg) (Payload, error) {
	switch {
	case a.IsRef && !a.Located:
		return Payload{}, errUnlocatedRef
	case a.IsRef:
		return Payload{isRef: true, ref: a.Ref, replicas: a.Replicas}, nil
	}
	return Inline(a.Inline), nil
}
