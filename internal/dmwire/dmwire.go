// Package dmwire defines the DmRPC-net DM protocol: method identifiers,
// status codes and request/response body codecs. Two transports speak it —
// the simulated backend (internal/dmnet over internal/transport) and the
// live TCP implementation (internal/live) — so the protocol lives in one
// place and cannot drift.
package dmwire

import (
	"encoding/binary"
	"errors"

	"repro/internal/dm"
	"repro/internal/rpc"
)

// Methods served by a DM server. Kept in a dedicated range so application
// nodes can share a method space if they ever co-locate.
const (
	MRegister rpc.Method = 0x0100 + iota
	MAlloc
	MFree
	MCreateRef
	MMapRef
	MFreeRef
	MRead
	MWrite
	// MStage fuses ralloc+rwrite+create_ref+rfree into one round trip: the
	// request carries the data, the response carries the ref key. The
	// staged pages are held only by the ref.
	MStage
	// MReadRef reads through a ref key without a mapping (read-only
	// consumers skip the map_ref round trip).
	MReadRef
	// MHeartbeat keeps an idle session alive and carries the server's
	// cache-invalidation epoch back. Its request body is empty: the
	// session stamp names the caller. Servers that lease sessions return
	// a TTL from MRegister; a session that sends no request within the
	// TTL is reaped with everything it holds (DESIGN.md §D8).
	MHeartbeat
	// MStageAt is MStage with a caller-chosen ref key — the replica-
	// placement primitive (DESIGN.md §D13): the pool client mints one
	// cluster-wide key (ReplicaKeyBit set) and stages the same payload
	// under it on every replica shard, so a single 8-byte key resolves the
	// data on any of them. Staging an already-present key fails with
	// statusRefExists instead of overwriting. The request may carry the
	// ref's replica set, which the server records as the key's epoch-1
	// directory entry together with the ref (DESIGN.md §D16) — the handoff
	// that lets the ref survive its producer's session reap.
	MStageAt
	// MRegPut merges a cluster ref's registry entry (key -> replica set,
	// size, epoch) into the shard's directory (DESIGN.md §D16): the
	// migration engine puts at a bumped epoch to flip placement, and a
	// stage that placed fewer copies than it targeted puts a corrected
	// entry at epoch 2. The server merges higher-epoch-wins and always
	// answers StatusOK.
	MRegPut
	// MRegGet queries one registry entry by key; statusBadRef when the
	// shard's directory has no entry. Last-resort located-ref resolution:
	// a reader whose candidate shards all miss asks the key's ring
	// successors where the payload lives now.
	MRegGet
	// MRegSync pages the shard's registry in ascending key order — the
	// anti-entropy unit. Clients and shards feed the last key of each
	// page back in until a short page; higher-epoch-wins merging on the
	// puller's side makes the exchange convergent and restartable.
	MRegSync
	// MConsumeRef fuses MReadRef and MFreeRef: it reads a ref and frees it
	// in one exchange, so the last reader of a ref drops it without a
	// wire call of its own. The body is a ReadRefReq and the response is
	// the read payload; a range error frees nothing.
	MConsumeRef
	// MAdoptRef moves a ref to the caller in one exchange: the old key is
	// retired and the same frames are republished under a new key owned
	// by the caller's session. No frame is copied and no refcount moves. The
	// body is an AdoptRefReq and the response a RefKeyResp naming the new
	// key. Of racing adopts, consumes and frees of one key exactly one
	// wins; the losers answer statusBadRef.
	MAdoptRef
)

// ReplicaKeyBit partitions the ref-key space: keys minted by a server's
// own counter have the top bit clear, keys minted by pool clients for
// replicated placement (MStageAt) have it set. The bit is what lets a
// reader recognize a replicated ref from the bare dm.Ref alone and fail
// over across the key's ring successors.
const ReplicaKeyBit = uint64(1) << 63

// Application error statuses returned by a DM server.
const (
	StatusOK      = 0
	StatusErr     = 1
	statusOOM     = 2
	statusBadAddr = 3
	statusBadRef  = 4
	statusRange   = 5
	// statusRefExists reports an MStageAt key collision: the server
	// already holds a ref under the requested key.
	statusRefExists = 6
	// StatusStale refuses a late duplicate whose session stamp is below
	// its slot's last one; it is never run again.
	StatusStale = 7
)

// ErrStale is the error a StatusStale refusal maps to.
var ErrStale = errors.New("dmwire: stale request refused: its session slot has moved on")

// StatusOf maps the shared dm errors onto wire statuses.
func StatusOf(err error) byte {
	switch err {
	case nil:
		return StatusOK
	case dm.ErrOutOfMemory:
		return statusOOM
	case dm.ErrBadAddress:
		return statusBadAddr
	case dm.ErrBadRef:
		return statusBadRef
	case dm.ErrOutOfRange:
		return statusRange
	case dm.ErrRefExists:
		return statusRefExists
	case ErrStale:
		return StatusStale
	default:
		return StatusErr
	}
}

// ErrOf maps a wire status back to the shared dm errors, so clients on
// either transport can compare against dm.Err* sentinels.
func ErrOf(status byte, msg string) error {
	switch status {
	case StatusOK:
		return nil
	case statusOOM:
		return dm.ErrOutOfMemory
	case statusBadAddr:
		return dm.ErrBadAddress
	case statusBadRef:
		return dm.ErrBadRef
	case statusRange:
		return dm.ErrOutOfRange
	case statusRefExists:
		return dm.ErrRefExists
	case StatusStale:
		return ErrStale
	default:
		return &rpc.AppError{Status: status, Msg: msg}
	}
}

// errBodyForm rejects a fixed-length body of any other length, or with
// a reserved flag bit set.
var errBodyForm = errors.New("dmwire: body has the wrong length or a reserved bit set")

// RegisterResp is the body of a successful MRegister response, in one
// 17-byte form (flags bit0 = HasShard; the other bits must be 0):
//
//	LeaseMillis u32 | flags u8 | Shard u32 | Epoch u64
//
// Both ends of a session are built from the same commit, so no field is
// optional on the wire. MRegister has an empty request body: register
// attaches the DM state to the session its stamp names, and every later
// request on that session reaches it.
//
// LeaseMillis is the session lease TTL, in milliseconds: a registered
// session that sends no request for that long is reaped. 0 means the
// server does not lease sessions and the session lives until the server
// shuts down.
//
// HasShard/Shard report the server's cluster shard identity
// (dmserverd -shard-id): a server deployed as one shard of a
// consistent-hash pool (internal/pool) advertises its shard ID so
// clients can verify their ring configuration against reality.
//
// Epoch is the server's cache-invalidation epoch at registration (§D15):
// the hot-ref cache's coherence baseline, so a client observing a LATER
// epoch on a heartbeat knows something it may have cached was freed,
// overwritten, or reaped. 0 means the server has never invalidated.
type RegisterResp struct {
	LeaseMillis uint32
	HasShard    bool
	Shard       uint32
	Epoch       uint64
}

// registerRespSize is the one wire length of a RegisterResp.
const registerRespSize = 4 + 1 + 4 + 8

// Marshal encodes the response body.
func (r RegisterResp) Marshal() []byte {
	var flags uint8
	if r.HasShard {
		flags = 1
	}
	return rpc.NewEnc(registerRespSize).U32(r.LeaseMillis).U8(flags).U32(r.Shard).U64(r.Epoch).Bytes()
}

// UnmarshalRegisterResp decodes the response body.
func UnmarshalRegisterResp(b []byte) (RegisterResp, error) {
	if len(b) != registerRespSize || b[4] > 1 {
		return RegisterResp{}, errBodyForm
	}
	d := rpc.NewDec(b)
	r := RegisterResp{LeaseMillis: d.U32(), HasShard: d.U8() == 1}
	r.Shard, r.Epoch = d.U32(), d.U64()
	return r, d.Err()
}

// HeartbeatResp is the body of a successful MHeartbeat response, in one
// 8-byte form — Epoch u64: the server's cache-invalidation epoch
// (DESIGN.md §D15).
type HeartbeatResp struct {
	Epoch uint64
}

// heartbeatRespSize is the one wire length of a HeartbeatResp.
const heartbeatRespSize = 8

// Marshal encodes the response body.
func (r HeartbeatResp) Marshal() []byte { return rpc.NewEnc(heartbeatRespSize).U64(r.Epoch).Bytes() }

// UnmarshalHeartbeatResp decodes the response body.
func UnmarshalHeartbeatResp(b []byte) (HeartbeatResp, error) {
	if len(b) != heartbeatRespSize {
		return HeartbeatResp{}, errBodyForm
	}
	d := rpc.NewDec(b)
	r := HeartbeatResp{Epoch: d.U64()}
	return r, d.Err()
}

// AllocReq is the body of an MAlloc request.
type AllocReq struct {
	Size int64
}

// Marshal encodes the request body.
func (r AllocReq) Marshal() []byte { return rpc.NewEnc(8).I64(r.Size).Bytes() }

// UnmarshalAllocReq decodes the request body.
func UnmarshalAllocReq(b []byte) (AllocReq, error) {
	d := rpc.NewDec(b)
	r := AllocReq{Size: d.I64()}
	return r, d.Err()
}

// AllocResp is the body of a successful MAlloc response.
type AllocResp struct {
	Addr dm.RemoteAddr
}

// Marshal encodes the response body.
func (r AllocResp) Marshal() []byte { return rpc.NewEnc(8).U64(uint64(r.Addr)).Bytes() }

// UnmarshalAllocResp decodes the response body.
func UnmarshalAllocResp(b []byte) (AllocResp, error) {
	d := rpc.NewDec(b)
	r := AllocResp{Addr: dm.RemoteAddr(d.U64())}
	return r, d.Err()
}

// FreeReq is the body of an MFree request.
type FreeReq struct {
	Addr dm.RemoteAddr
}

// Marshal encodes the request body.
func (r FreeReq) Marshal() []byte { return rpc.NewEnc(8).U64(uint64(r.Addr)).Bytes() }

// UnmarshalFreeReq decodes the request body.
func UnmarshalFreeReq(b []byte) (FreeReq, error) {
	d := rpc.NewDec(b)
	r := FreeReq{Addr: dm.RemoteAddr(d.U64())}
	return r, d.Err()
}

// CreateRefReq is the body of an MCreateRef request.
type CreateRefReq struct {
	Addr dm.RemoteAddr
	Size int64
}

// Marshal encodes the request body.
func (r CreateRefReq) Marshal() []byte {
	return rpc.NewEnc(16).U64(uint64(r.Addr)).I64(r.Size).Bytes()
}

// UnmarshalCreateRefReq decodes the request body.
func UnmarshalCreateRefReq(b []byte) (CreateRefReq, error) {
	d := rpc.NewDec(b)
	r := CreateRefReq{Addr: dm.RemoteAddr(d.U64()), Size: d.I64()}
	return r, d.Err()
}

// RefKeyResp is the body of a successful MCreateRef, MStage, MStageAt
// or MAdoptRef response.
type RefKeyResp struct {
	Key uint64
}

// Append appends the response body to b.
func (r RefKeyResp) Append(b []byte) []byte { return binary.BigEndian.AppendUint64(b, r.Key) }

// UnmarshalRefKeyResp decodes the response body.
func UnmarshalRefKeyResp(b []byte) (RefKeyResp, error) {
	d := rpc.NewDec(b)
	r := RefKeyResp{Key: d.U64()}
	return r, d.Err()
}

// MapRefReq is the body of an MMapRef request.
type MapRefReq struct {
	Key uint64
}

// Marshal encodes the request body.
func (r MapRefReq) Marshal() []byte { return rpc.NewEnc(8).U64(r.Key).Bytes() }

// UnmarshalMapRefReq decodes the request body.
func UnmarshalMapRefReq(b []byte) (MapRefReq, error) {
	d := rpc.NewDec(b)
	r := MapRefReq{Key: d.U64()}
	return r, d.Err()
}

// MapRefResp is the body of a successful MMapRef response.
type MapRefResp struct {
	Addr dm.RemoteAddr
	Size int64
}

// Marshal encodes the response body.
func (r MapRefResp) Marshal() []byte {
	return rpc.NewEnc(16).U64(uint64(r.Addr)).I64(r.Size).Bytes()
}

// UnmarshalMapRefResp decodes the response body.
func UnmarshalMapRefResp(b []byte) (MapRefResp, error) {
	d := rpc.NewDec(b)
	r := MapRefResp{Addr: dm.RemoteAddr(d.U64()), Size: d.I64()}
	return r, d.Err()
}

// FreeRefReq is the body of an MFreeRef request.
type FreeRefReq struct {
	Key uint64
}

// Append appends the request body to b.
func (r FreeRefReq) Append(b []byte) []byte { return binary.BigEndian.AppendUint64(b, r.Key) }

// UnmarshalFreeRefReq decodes the request body.
func UnmarshalFreeRefReq(b []byte) (FreeRefReq, error) {
	d := rpc.NewDec(b)
	r := FreeRefReq{Key: d.U64()}
	return r, d.Err()
}

// ReadReq is the body of an MRead request.
type ReadReq struct {
	Addr dm.RemoteAddr
	Size uint32
}

// Marshal encodes the request body.
func (r ReadReq) Marshal() []byte {
	return rpc.NewEnc(12).U64(uint64(r.Addr)).U32(r.Size).Bytes()
}

// UnmarshalReadReq decodes the request body.
func UnmarshalReadReq(b []byte) (ReadReq, error) {
	d := rpc.NewDec(b)
	r := ReadReq{Addr: dm.RemoteAddr(d.U64()), Size: d.U32()}
	return r, d.Err()
}

// WriteReq is the body of an MWrite request; Data aliases the message
// buffer.
type WriteReq struct {
	Addr dm.RemoteAddr
	Data []byte
}

// Marshal encodes the request body.
func (r WriteReq) Marshal() []byte {
	e := rpc.NewEnc(8 + len(r.Data))
	return e.U64(uint64(r.Addr)).Raw(r.Data).Bytes()
}

// MarshalHdr encodes only the fixed-size prefix of the request body, for
// transports that write Data as its own vectored segment (zero-copy
// framing): Marshal() == append(MarshalHdr(), Data...).
func (r WriteReq) MarshalHdr() []byte {
	return rpc.NewEnc(8).U64(uint64(r.Addr)).Bytes()
}

// UnmarshalWriteReq decodes the request body.
func UnmarshalWriteReq(b []byte) (WriteReq, error) {
	d := rpc.NewDec(b)
	r := WriteReq{Addr: dm.RemoteAddr(d.U64())}
	r.Data = d.Remaining()
	return r, d.Err()
}

// StageReq is the body of an MStage request: the payload itself, with
// no header, so a transport writes Data as the whole body. Data aliases
// the message buffer.
type StageReq struct {
	Data []byte
}

// Marshal encodes the request body.
func (r StageReq) Marshal() []byte { return append([]byte(nil), r.Data...) }

// UnmarshalStageReq decodes the request body.
func UnmarshalStageReq(b []byte) (StageReq, error) { return StageReq{Data: b}, nil }

// StageAtReq is the body of an MStageAt request: stage Data under the
// caller-chosen Key (which must have ReplicaKeyBit set). A non-empty
// Replicas list also records the ref's directory entry — Key, len(Data),
// epoch 1, Replicas — on the server, atomically with the ref (the
// registry handoff, DESIGN.md §D16), so a replicated stage costs one
// exchange per replica. An empty list records nothing: repair and
// migration re-stages, and every stage with the registry off. Data
// aliases the message buffer.
//
//	Key u64 | nreps u8 | Replicas u32 x n | Data
//
// Lists longer than MaxRefReplicas are truncated on encode and rejected
// on decode.
type StageAtReq struct {
	Key      uint64
	Replicas []uint32
	Data     []byte
}

// stageAtFixed is the size of the request prefix before the replica list.
const stageAtFixed = 8 + 1

// Marshal encodes the request body.
func (r StageAtReq) Marshal() []byte {
	b := make([]byte, 0, stageAtFixed+4*len(r.Replicas)+len(r.Data))
	return append(r.AppendHdr(b), r.Data...)
}

// AppendHdr appends only the prefix of the request body to b, for
// transports that write Data as its own vectored segment (zero-copy
// framing): Marshal() == append(AppendHdr(nil), Data...).
func (r StageAtReq) AppendHdr(b []byte) []byte {
	return appendReplicas(binary.BigEndian.AppendUint64(b, r.Key), r.Replicas)
}

// UnmarshalStageAtReq decodes the request body.
func UnmarshalStageAtReq(b []byte) (StageAtReq, error) {
	d := rpc.NewDec(b)
	r := StageAtReq{Key: d.U64()}
	reps, err := decodeReplicas(d)
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return StageAtReq{}, err
	}
	r.Replicas, r.Data = reps, d.Remaining()
	return r, nil
}

// ReadRefReq is the body of an MReadRef or MConsumeRef request.
type ReadRefReq struct {
	Key  uint64
	Off  uint32
	Size uint32
}

// Append appends the request body to b.
func (r ReadRefReq) Append(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.Key)
	b = binary.BigEndian.AppendUint32(b, r.Off)
	return binary.BigEndian.AppendUint32(b, r.Size)
}

// UnmarshalReadRefReq decodes the request body.
func UnmarshalReadRefReq(b []byte) (ReadRefReq, error) {
	d := rpc.NewDec(b)
	r := ReadRefReq{Key: d.U64(), Off: d.U32(), Size: d.U32()}
	return r, d.Err()
}

// AdoptRefReq is the body of an MAdoptRef request: move the ref under
// Key to the calling session, republishing it under NewKey. NewKey 0 lets the server
// mint the key from its own counter; otherwise it is a pool-minted key
// (ReplicaKeyBit set), and a non-empty Replicas list records its epoch-1
// directory entry together with the move, as MStageAt does.
//
//	Key u64 | NewKey u64 | nreps u8 | Replicas u32 x n
type AdoptRefReq struct {
	Key      uint64
	NewKey   uint64
	Replicas []uint32
}

// Append appends the request body to b.
func (r AdoptRefReq) Append(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.Key)
	return appendReplicas(binary.BigEndian.AppendUint64(b, r.NewKey), r.Replicas)
}

// UnmarshalAdoptRefReq decodes the request body; trailing bytes are
// rejected.
func UnmarshalAdoptRefReq(b []byte) (AdoptRefReq, error) {
	d := rpc.NewDec(b)
	r := AdoptRefReq{Key: d.U64(), NewKey: d.U64()}
	reps, err := decodeReplicas(d)
	if err == nil {
		err = d.Err()
	}
	if err == nil && len(d.Remaining()) != 0 {
		err = errBodyForm
	}
	if err != nil {
		return AdoptRefReq{}, err
	}
	r.Replicas = reps
	return r, nil
}
