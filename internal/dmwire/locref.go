package dmwire

import (
	"errors"

	"repro/internal/dm"
	"repro/internal/rpc"
)

// Versioned location-aware ref codec for the sharded DM cluster layer
// (internal/pool). A v0 ref is the original dm.Ref wire form, minted by
// a single-server session (live.Client): its Server field is 0 and names
// no server — meaningful only next to the session's address. A v1
// (located) ref marks the same 20 bytes as cluster-addressed: Server
// carries a cluster-wide shard ID from the pool's consistent-hash ring,
// so any process holding the shard map can resolve the ref to the server
// that stores its pages with no extra hop. The two forms are
// distinguished by an explicit version byte prefix on v1+, and — for raw
// buffers — by length (a bare v0 ref is exactly dm.EncodedRefSize bytes
// and carries no version byte), so old single-server refs still parse.

// Ref codec versions.
const (
	// RefV0 marks the legacy unversioned form: dm.Ref with an unlocated
	// Server field and no version byte.
	RefV0 = 0
	// RefV1 marks the located form: a version byte followed by dm.Ref
	// whose Server field is a cluster-wide shard ID.
	RefV1 = 1
	// RefV2 marks the replicated form: the v1 encoding followed by a
	// u8-counted list of u32 shard IDs naming every shard believed to hold
	// a copy of the payload (DESIGN.md §D13). Ref.Server remains the
	// primary (first-choice) shard; the list is a read-failover hint and
	// may be stale — readers fall back to the ring successors of Ref.Key.
	RefV2 = 2
)

// LocatedRefSize is the wire size of a v1 located ref. A v2 ref is
// LocatedRefSize + 1 + 4*len(Replicas) bytes; every form remains
// length/version-disambiguated (v0 = 20 bytes exactly, v1 = 21, v2 >= 22).
const LocatedRefSize = 1 + dm.EncodedRefSize

// MaxRefReplicas caps the replica-hint list carried by a v2 ref: a
// defensive decode limit (no hostile count may balloon memory) and far
// above any sane replication factor.
const MaxRefReplicas = 16

// ErrBadRefVersion reports an unknown located-ref version byte.
var ErrBadRefVersion = errors.New("dmwire: unknown located-ref version")

// ErrTooManyReplicas reports a replica list that exceeds MaxRefReplicas.
var ErrTooManyReplicas = errors.New("dmwire: replica list exceeds MaxRefReplicas")

// encodeReplicas appends the one wire form of a replica list — u8 count,
// then that many u32 shard IDs — shared by v2 refs, call-arg flag 3,
// registry entries and stage_at. Lists past MaxRefReplicas are
// truncated.
func encodeReplicas(e *rpc.Enc, reps []uint32) {
	if len(reps) > MaxRefReplicas {
		reps = reps[:MaxRefReplicas]
	}
	e.U8(uint8(len(reps)))
	for _, id := range reps {
		e.U32(id)
	}
}

// decodeReplicas reads a replica list off d (nil when the count is 0),
// rejecting a count past MaxRefReplicas. The caller checks d.Err().
func decodeReplicas(d *rpc.Dec) ([]uint32, error) {
	n := int(d.U8())
	if n > MaxRefReplicas {
		return nil, ErrTooManyReplicas
	}
	if n == 0 {
		return nil, nil
	}
	reps := make([]uint32, n)
	for i := range reps {
		reps[i] = d.U32()
	}
	return reps, nil
}

// LocatedRef pairs a ref with its codec version. Located reports whether
// Ref.Server is a cluster-wide shard ID (v1) rather than unlocated
// (v0).
type LocatedRef struct {
	Version uint8
	Ref     dm.Ref
	// Replicas is the v2 replica-hint list: shard IDs believed to hold a
	// copy at encode time, primary included. Nil for v0/v1.
	Replicas []uint32
}

// Located reports whether the ref is cluster-addressed.
func (r LocatedRef) Located() bool { return r.Version >= RefV1 }

// Shard returns the shard ID of a located ref (Ref.Server).
func (r LocatedRef) Shard() uint32 { return r.Ref.Server }

// Locate wraps a ref whose Server field is a cluster-wide shard ID.
func Locate(ref dm.Ref) LocatedRef { return LocatedRef{Version: RefV1, Ref: ref} }

// LocateReplicated wraps a cluster-addressed ref together with its
// replica shard set. With fewer than two distinct shards the v1 form is
// returned (a single-copy ref needs no hint list); over-long lists are
// truncated to MaxRefReplicas.
func LocateReplicated(ref dm.Ref, shards []uint32) LocatedRef {
	if len(shards) < 2 {
		return Locate(ref)
	}
	if len(shards) > MaxRefReplicas {
		shards = shards[:MaxRefReplicas]
	}
	cp := make([]uint32, len(shards))
	copy(cp, shards)
	return LocatedRef{Version: RefV2, Ref: ref, Replicas: cp}
}

// Marshal encodes the ref in its version's wire form: v0 is the bare
// dm.Ref encoding (no version byte, for byte-compatibility with every
// pre-pool ref ever written); v1 prefixes the version byte.
func (r LocatedRef) Marshal() []byte {
	if r.Version == RefV0 {
		return r.Ref.Marshal()
	}
	if r.Version >= RefV2 {
		e := rpc.NewEnc(LocatedRefSize + 1 + 4*len(r.Replicas))
		e.U8(r.Version)
		r.Ref.Encode(e)
		encodeReplicas(e, r.Replicas)
		return e.Bytes()
	}
	e := rpc.NewEnc(LocatedRefSize)
	e.U8(r.Version)
	r.Ref.Encode(e)
	return e.Bytes()
}

// UnmarshalLocatedRef decodes either form: a buffer of exactly
// dm.EncodedRefSize bytes is the legacy v0 encoding; anything longer must
// lead with a known version byte. (A v1 ref is one byte longer than a v0
// ref, so length disambiguates without reserving a Server bit.)
func UnmarshalLocatedRef(b []byte) (LocatedRef, error) {
	if len(b) == dm.EncodedRefSize {
		ref, err := dm.UnmarshalRef(b)
		if err != nil {
			return LocatedRef{}, err
		}
		return LocatedRef{Version: RefV0, Ref: ref}, nil
	}
	d := rpc.NewDec(b)
	v := d.U8()
	if v != RefV1 && v != RefV2 {
		return LocatedRef{}, ErrBadRefVersion
	}
	ref := dm.DecodeRef(d)
	if err := d.Err(); err != nil {
		return LocatedRef{}, err
	}
	r := LocatedRef{Version: v, Ref: ref}
	if v == RefV2 {
		reps, err := decodeReplicas(d)
		if err == nil {
			err = d.Err()
		}
		if err != nil {
			return LocatedRef{}, err
		}
		r.Replicas = reps
	}
	return r, nil
}
