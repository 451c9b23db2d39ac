package dmwire

import (
	"encoding/binary"
	"errors"

	"repro/internal/dm"
	"repro/internal/rpc"
)

// Call-envelope codec for the application-level DmRPC framework
// (internal/liverpc). One envelope is the body of one service call frame:
// the target method name, trace/deadline propagation fields, and the
// argument list, where each argument is either inline bytes (small
// values) or a Ref descriptor into disaggregated memory (large values
// staged once by the producer). The response body is a ReturnEnvelope
// carrying the result list in the same argument codec.

// Envelope decoding limits. These are defensive caps applied before any
// per-item allocation, mirroring MaxFrameSize at the frame layer: a
// hostile count or length field must not balloon memory.
const (
	// MaxMethodLen caps a method name's wire length in bytes.
	MaxMethodLen = 255
	// MaxCallArgs caps the number of arguments (or results) per envelope.
	MaxCallArgs = 64
)

// Envelope decode errors.
var (
	ErrMethodTooLong = errors.New("dmwire: method name exceeds MaxMethodLen")
	ErrTooManyArgs   = errors.New("dmwire: envelope exceeds MaxCallArgs arguments")
	ErrBadEnvelope   = errors.New("dmwire: malformed call envelope")
)

// MaxRefReplicas caps every replica list on the wire (located call args,
// stage_at, registry entries): a defensive decode limit, so no hostile
// count can balloon memory, and far above any sane replication factor.
const MaxRefReplicas = 16

// ErrTooManyReplicas reports a replica list that exceeds MaxRefReplicas.
var ErrTooManyReplicas = errors.New("dmwire: replica list exceeds MaxRefReplicas")

// encodeReplicas appends the one wire form of a replica list — u8 count,
// then that many u32 shard IDs. Lists past MaxRefReplicas are truncated.
func encodeReplicas(e *rpc.Enc, reps []uint32) {
	var b [1 + 4*MaxRefReplicas]byte
	e.Raw(appendReplicas(b[:0], reps))
}

// appendReplicas is encodeReplicas appending to b.
func appendReplicas(b []byte, reps []uint32) []byte {
	if len(reps) > MaxRefReplicas {
		reps = reps[:MaxRefReplicas]
	}
	b = append(b, uint8(len(reps)))
	for _, id := range reps {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return b
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

// CallArg is one size-aware argument descriptor: inline payload bytes or
// a Ref into disaggregated memory. Exactly the paper's pass-by-value /
// pass-by-reference split, at the wire layer. A leading flag byte picks
// one of three encodings (ref is dm.Ref's 20-byte form):
//
//	0 | len u32 | bytes              inline
//	1 | ref                          unlocated ref
//	2 | ref | nreps u8 | nreps×u32   located ref with its replica list
type CallArg struct {
	// IsRef selects the representation.
	IsRef bool
	// Ref names the staged pages (valid when IsRef).
	Ref dm.Ref
	// Located marks a cluster-addressed ref: Ref.Server is a cluster-wide
	// shard ID from the pool's consistent-hash ring; an unlocated ref
	// names no server, and liverpc refuses one. Valid when IsRef.
	Located bool
	// Replicas is a located ref's replica-hint list (shard IDs believed
	// to hold a copy of the payload, primary included). A non-empty list
	// implies Located.
	Replicas []uint32
	// Inline is the in-message payload (valid when !IsRef). Unmarshal
	// aliases the envelope buffer; callers that retain it must copy.
	Inline []byte
}

// Size returns the argument's logical payload length.
func (a CallArg) Size() int64 {
	if a.IsRef {
		return a.Ref.Size
	}
	return int64(len(a.Inline))
}

// located reports whether the argument takes the located (flag 2) form.
func (a CallArg) located() bool { return a.IsRef && (a.Located || len(a.Replicas) > 0) }

// WireSize returns the argument's encoded length inside an envelope —
// the quantity pass-by-reference shrinks from megabytes to tens of bytes.
func (a CallArg) WireSize() int {
	switch {
	case a.located():
		return 1 + dm.EncodedRefSize + 1 + 4*min(len(a.Replicas), MaxRefReplicas)
	case a.IsRef:
		return 1 + dm.EncodedRefSize
	default:
		return 1 + 4 + len(a.Inline)
	}
}

// encode appends the argument. When skipInlineBytes is set the inline
// length prefix is written but the raw bytes are omitted (the bulk-arg
// vectored-write path).
func (a CallArg) encode(e *rpc.Enc, skipInlineBytes bool) {
	switch {
	case a.located():
		a.Ref.Encode(e.U8(2))
		encodeReplicas(e, a.Replicas)
	case a.IsRef:
		a.Ref.Encode(e.U8(1))
	case skipInlineBytes:
		e.U8(0).U32(uint32(len(a.Inline)))
	default:
		e.U8(0).Blob(a.Inline)
	}
}

// decodeCallArg reads one argument, aliasing d's buffer for inline data.
// Unknown flags are rejected so the codec stays canonical.
func decodeCallArg(d *rpc.Dec) (CallArg, error) {
	switch d.U8() {
	case 0:
		return CallArg{Inline: d.Blob()}, nil
	case 1:
		return CallArg{IsRef: true, Ref: dm.DecodeRef(d)}, nil
	case 2:
		a := CallArg{IsRef: true, Located: true, Ref: dm.DecodeRef(d)}
		reps, err := decodeReplicas(d)
		a.Replicas = reps
		return a, err
	default:
		return CallArg{}, ErrBadEnvelope
	}
}

// CallEnvelope is the request body of one liverpc service call.
type CallEnvelope struct {
	// Method is the registered service method name.
	Method string
	// TraceID identifies the end-to-end request; minted at the top-level
	// caller and propagated unchanged down nested calls.
	TraceID uint64
	// Hop is the nesting depth, incremented per forwarding service.
	Hop uint8
	// DeadlineMillis is the caller's remaining deadline budget at send
	// time, in milliseconds; 0 means no deadline. Propagating the
	// remaining budget (not an absolute timestamp) keeps the field
	// meaningful across unsynchronized clocks.
	DeadlineMillis uint32
	// Args is the argument list.
	Args []CallArg
}

// marshal encodes the envelope; when hdrOnly is set the final argument
// (inline, as MarshalHdr guarantees) has its raw bytes omitted so they
// can ride the socket as their own iovec, and the buffer is sized
// without them.
func (env CallEnvelope) marshal(hdrOnly bool) []byte {
	n := 4 + len(env.Method) + 8 + 1 + 4 + 1
	for _, a := range env.Args {
		n += a.WireSize()
	}
	if hdrOnly {
		n -= len(env.Args[len(env.Args)-1].Inline)
	}
	e := rpc.NewEnc(n)
	e.Str(env.Method)
	e.U64(env.TraceID)
	e.U8(env.Hop)
	e.U32(env.DeadlineMillis)
	e.U8(uint8(len(env.Args)))
	for i, a := range env.Args {
		a.encode(e, hdrOnly && i == len(env.Args)-1)
	}
	return e.Bytes()
}

// Marshal encodes the full envelope, inline bytes included.
func (env CallEnvelope) Marshal() []byte { return env.marshal(false) }

// MarshalHdr encodes the envelope with the final argument's inline bytes
// omitted (its length prefix stays), for transports that write those
// bytes as their own vectored segment:
//
//	Marshal() == append(MarshalHdr(), lastArg.Inline...)
//
// Valid only when the final argument is inline; envelopes whose last
// argument is a Ref (or that have no arguments) get the full encoding.
func (env CallEnvelope) MarshalHdr() []byte {
	if n := len(env.Args); n == 0 || env.Args[n-1].IsRef {
		return env.marshal(false)
	}
	return env.marshal(true)
}

// Bulk returns the bytes MarshalHdr omitted (nil when MarshalHdr is the
// full encoding).
func (env CallEnvelope) Bulk() []byte {
	if n := len(env.Args); n > 0 && !env.Args[n-1].IsRef {
		return env.Args[n-1].Inline
	}
	return nil
}

// UnmarshalCallEnvelope decodes a call envelope. Inline argument bytes
// alias b.
func UnmarshalCallEnvelope(b []byte) (CallEnvelope, error) {
	d := rpc.NewDec(b)
	method := d.Blob()
	if len(method) > MaxMethodLen {
		return CallEnvelope{}, ErrMethodTooLong
	}
	env := CallEnvelope{
		Method:  string(method),
		TraceID: d.U64(),
		Hop:     d.U8(),
	}
	env.DeadlineMillis = d.U32()
	args, err := decodeArgs(d)
	if err != nil {
		return CallEnvelope{}, err
	}
	env.Args = args
	if d.Err() != nil {
		return CallEnvelope{}, ErrBadEnvelope
	}
	return env, nil
}

// ReturnEnvelope is the successful response body of one liverpc call:
// the result list in the same size-aware argument codec. Errors travel
// as non-OK frame statuses, not in the envelope.
type ReturnEnvelope struct {
	Args []CallArg
}

// Marshal encodes the response body.
func (env ReturnEnvelope) Marshal() []byte {
	n := 1
	for _, a := range env.Args {
		n += a.WireSize()
	}
	e := rpc.NewEnc(n)
	e.U8(uint8(len(env.Args)))
	for _, a := range env.Args {
		a.encode(e, false)
	}
	return e.Bytes()
}

// UnmarshalReturnEnvelope decodes a response body. Inline result bytes
// alias b.
func UnmarshalReturnEnvelope(b []byte) (ReturnEnvelope, error) {
	d := rpc.NewDec(b)
	args, err := decodeArgs(d)
	if err != nil {
		return ReturnEnvelope{}, err
	}
	if d.Err() != nil {
		return ReturnEnvelope{}, ErrBadEnvelope
	}
	return ReturnEnvelope{Args: args}, nil
}

// decodeArgs reads a U8-counted argument list, enforcing MaxCallArgs.
func decodeArgs(d *rpc.Dec) ([]CallArg, error) {
	n := int(d.U8())
	if n > MaxCallArgs {
		return nil, ErrTooManyArgs
	}
	if n == 0 || d.Err() != nil {
		return nil, nil
	}
	args := make([]CallArg, 0, n)
	for i := 0; i < n; i++ {
		a, err := decodeCallArg(d)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}
