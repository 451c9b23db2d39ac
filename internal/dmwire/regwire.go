package dmwire

import (
	"errors"

	"repro/internal/registry"
	"repro/internal/rpc"
)

// Registry directory codecs (DESIGN.md §D16). One registry.Entry rides
// the wire as:
//
//	Key u64 | Size i64 | Epoch u64 | nreps u8 | Replicas u32 x n
//
// — 25 + 4n bytes. MRegPut carries exactly one entry (the handoff /
// placement-flip unit), MRegGet returns one, MRegSync returns a
// u32-counted list. Replica lists are capped at MaxRefReplicas and sync
// pages at MaxRegSyncEntries, so no hostile count can balloon memory.

// MaxRegSyncEntries caps one anti-entropy page: a defensive decode
// limit and the natural pacing unit for the sync loop.
const MaxRegSyncEntries = 1024

// errRegPage reports a sync page whose entry count exceeds
// MaxRegSyncEntries.
var errRegPage = errors.New("dmwire: registry sync page exceeds MaxRegSyncEntries")

// regEntrySize is the fixed prefix of one encoded entry.
const regEntrySize = 25

// encodeRegEntry appends one entry to e.
func encodeRegEntry(e *rpc.Enc, ent registry.Entry) {
	e.U64(ent.Key).I64(ent.Size).U64(ent.Epoch)
	encodeReplicas(e, ent.Replicas)
}

// decodeRegEntry reads one entry off d. The caller checks d.Err().
func decodeRegEntry(d *rpc.Dec) (registry.Entry, error) {
	ent := registry.Entry{Key: d.U64(), Size: d.I64(), Epoch: d.U64()}
	reps, err := decodeReplicas(d)
	if err != nil {
		return ent, err
	}
	ent.Replicas = reps
	return ent, d.Err()
}

// RegPutReq is the body of an MRegPut request: one directory entry to
// merge (higher epoch wins) into the shard's registry.
type RegPutReq struct {
	Entry registry.Entry
}

// Marshal encodes the request body.
func (r RegPutReq) Marshal() []byte {
	e := rpc.NewEnc(regEntrySize + 4*len(r.Entry.Replicas))
	encodeRegEntry(e, r.Entry)
	return e.Bytes()
}

// UnmarshalRegPutReq decodes the request body.
func UnmarshalRegPutReq(b []byte) (RegPutReq, error) {
	d := rpc.NewDec(b)
	ent, err := decodeRegEntry(d)
	return RegPutReq{Entry: ent}, err
}

// RegGetReq is the body of an MRegGet request.
type RegGetReq struct {
	Key uint64
}

// Marshal encodes the request body.
func (r RegGetReq) Marshal() []byte { return rpc.NewEnc(8).U64(r.Key).Bytes() }

// UnmarshalRegGetReq decodes the request body.
func UnmarshalRegGetReq(b []byte) (RegGetReq, error) {
	d := rpc.NewDec(b)
	r := RegGetReq{Key: d.U64()}
	return r, d.Err()
}

// RegGetResp is the body of a successful MRegGet response: the full
// entry (key included, so the caller can verify the echo).
type RegGetResp struct {
	Entry registry.Entry
}

// Marshal encodes the response body.
func (r RegGetResp) Marshal() []byte {
	e := rpc.NewEnc(regEntrySize + 4*len(r.Entry.Replicas))
	encodeRegEntry(e, r.Entry)
	return e.Bytes()
}

// UnmarshalRegGetResp decodes the response body.
func UnmarshalRegGetResp(b []byte) (RegGetResp, error) {
	d := rpc.NewDec(b)
	ent, err := decodeRegEntry(d)
	return RegGetResp{Entry: ent}, err
}

// RegSyncReq is the body of an MRegSync request: return up to Limit
// entries with keys strictly greater than AfterKey, ascending.
type RegSyncReq struct {
	AfterKey uint64
	Limit    uint32
}

// Marshal encodes the request body.
func (r RegSyncReq) Marshal() []byte {
	return rpc.NewEnc(12).U64(r.AfterKey).U32(r.Limit).Bytes()
}

// UnmarshalRegSyncReq decodes the request body.
func UnmarshalRegSyncReq(b []byte) (RegSyncReq, error) {
	d := rpc.NewDec(b)
	r := RegSyncReq{AfterKey: d.U64(), Limit: d.U32()}
	return r, d.Err()
}

// RegSyncResp is the body of a successful MRegSync response: one
// directory page. A page shorter than the requested limit means the
// scan is complete.
type RegSyncResp struct {
	Entries []registry.Entry
}

// Marshal encodes the response body. Pages longer than
// MaxRegSyncEntries are truncated — canonical encoders never build
// them.
func (r RegSyncResp) Marshal() []byte {
	ents := r.Entries
	if len(ents) > MaxRegSyncEntries {
		ents = ents[:MaxRegSyncEntries]
	}
	size := 4
	for _, ent := range ents {
		n := len(ent.Replicas)
		if n > MaxRefReplicas {
			n = MaxRefReplicas
		}
		size += regEntrySize + 4*n
	}
	e := rpc.NewEnc(size)
	e.U32(uint32(len(ents)))
	for _, ent := range ents {
		encodeRegEntry(e, ent)
	}
	return e.Bytes()
}

// UnmarshalRegSyncResp decodes the response body.
func UnmarshalRegSyncResp(b []byte) (RegSyncResp, error) {
	d := rpc.NewDec(b)
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return RegSyncResp{}, err
	}
	if n > MaxRegSyncEntries {
		return RegSyncResp{}, errRegPage
	}
	r := RegSyncResp{}
	if n > 0 {
		r.Entries = make([]registry.Entry, 0, min(n, 64))
		for i := 0; i < n; i++ {
			ent, err := decodeRegEntry(d)
			if err != nil {
				return RegSyncResp{}, err
			}
			r.Entries = append(r.Entries, ent)
		}
	}
	return r, d.Err()
}
