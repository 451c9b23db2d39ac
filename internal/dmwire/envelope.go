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
// staged once by the producer). The response body, a return envelope,
// carries the result list in the same argument codec.
//
// The codec has one encoder and one decoder per envelope, both free of
// allocation: AppendCall and AppendReturn write straight from an
// argument list into a caller buffer, and DecodeCall and DecodeReturn
// fill caller-provided argument storage, aliasing the body.
// CallEnvelope's Marshal, MarshalHdr and UnmarshalCallEnvelope are thin
// wrappers over them.

// Envelope decoding limits. These are defensive caps applied before any
// per-item allocation, mirroring MaxFrameSize at the frame layer: a
// hostile count or length field must not balloon memory.
const (
	// MaxMethodLen caps a method name's wire length in bytes.
	MaxMethodLen = 255
	// MaxCallArgs caps the number of arguments (or results) per envelope.
	// The encoders refuse a longer list, so none is truncated on the wire.
	MaxCallArgs = 64
)

// Envelope codec errors.
var (
	errMethodTooLong = errors.New("dmwire: method name exceeds MaxMethodLen")
	ErrTooManyArgs   = errors.New("dmwire: envelope exceeds MaxCallArgs arguments")
	errBadEnvelope   = errors.New("dmwire: malformed call envelope")
)

// MaxRefReplicas caps every replica list on the wire (located call args,
// stage_at, registry entries): a defensive decode limit, so no hostile
// count can balloon memory, and far above any sane replication factor.
const MaxRefReplicas = 16

// errTooManyReplicas reports a replica list that exceeds MaxRefReplicas.
var errTooManyReplicas = errors.New("dmwire: replica list exceeds MaxRefReplicas")

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
		return nil, errTooManyReplicas
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
	// implies Located. A decoded list is freshly allocated, never part
	// of the caller's argument storage.
	Replicas []uint32
	// Inline is the in-message payload (valid when !IsRef). Decoding
	// aliases the envelope buffer; callers that retain it must copy.
	Inline []byte
}

// Arg is an argument the envelope encoders write: a CallArg, or an
// application type that describes itself as one (liverpc.Payload), so a
// caller encodes its own argument list without building a []CallArg.
type Arg interface{ Wire() CallArg }

// Wire returns a itself, making CallArg an Arg.
func (a CallArg) Wire() CallArg { return a }

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

// appendTo appends the argument's encoding to b. With bulk set an inline
// argument's length prefix is written but its bytes are left out (the
// bulk-arg vectored-write path).
func (a *CallArg) appendTo(b []byte, bulk bool) []byte {
	switch {
	case a.located():
		return appendReplicas(appendRef(append(b, 2), a.Ref), a.Replicas)
	case a.IsRef:
		return appendRef(append(b, 1), a.Ref)
	}
	b = binary.BigEndian.AppendUint32(append(b, 0), uint32(len(a.Inline)))
	if bulk {
		return b
	}
	return append(b, a.Inline...)
}

// appendRef appends dm.Ref's 20-byte wire form.
func appendRef(b []byte, r dm.Ref) []byte {
	b = binary.BigEndian.AppendUint32(b, r.Server)
	b = binary.BigEndian.AppendUint64(b, r.Key)
	return binary.BigEndian.AppendUint64(b, uint64(r.Size))
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
		return CallArg{}, errBadEnvelope
	}
}

// appendArgs appends a U8-counted argument list to b, refusing one past
// MaxCallArgs. With split set and the final argument inline, that
// argument's bytes are left out of b and returned as bulk.
func appendArgs[A Arg](b []byte, args []A, split bool) (_, bulk []byte, err error) {
	if len(args) > MaxCallArgs {
		return b, nil, ErrTooManyArgs
	}
	b = append(b, uint8(len(args)))
	for i := range args {
		a := args[i].Wire()
		if split && i == len(args)-1 && !a.IsRef {
			bulk = a.Inline
			return a.appendTo(b, true), bulk, nil
		}
		b = a.appendTo(b, false)
	}
	return b, nil, nil
}

// decodeArgs reads a U8-counted argument list into args' storage,
// enforcing MaxCallArgs, and refuses bytes after it: the list ends both
// envelopes. A list that does not fit args' capacity gets fresh storage.
func decodeArgs(d *rpc.Dec, args []CallArg) ([]CallArg, error) {
	n := int(d.U8())
	if n > MaxCallArgs {
		return nil, ErrTooManyArgs
	}
	args = args[:0]
	if cap(args) < n {
		args = make([]CallArg, 0, n)
	}
	for i := 0; i < n; i++ {
		a, err := decodeCallArg(d)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	if d.Err() != nil || len(d.Remaining()) != 0 {
		return nil, errBadEnvelope
	}
	return args, nil
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

// AppendCall appends the call envelope of env's method and fixed fields
// with args as its argument list (env.Args is not read) to b. A final
// inline argument's bytes are left out and returned as bulk, to ride
// the socket as their own iovec: the body is append(hdr, bulk...). More
// than MaxCallArgs arguments are refused with ErrTooManyArgs.
func AppendCall[A Arg](b []byte, env *CallEnvelope, args []A) (hdr, bulk []byte, err error) {
	b = binary.BigEndian.AppendUint32(b, uint32(len(env.Method)))
	b = append(b, env.Method...)
	b = binary.BigEndian.AppendUint64(b, env.TraceID)
	b = append(b, env.Hop)
	b = binary.BigEndian.AppendUint32(b, env.DeadlineMillis)
	return appendArgs(b, args, true)
}

// DecodeCall decodes a call envelope, filling args' storage with its
// argument list (env.Args): inline argument bytes and the returned
// method name alias b, and env.Method is left empty, so a caller that
// reuses its storage decodes without allocating. Bytes after the
// argument list are refused.
func DecodeCall(b []byte, args []CallArg) (method []byte, env CallEnvelope, err error) {
	d := rpc.NewDec(b)
	method = d.Blob()
	if len(method) > MaxMethodLen {
		return nil, CallEnvelope{}, errMethodTooLong
	}
	env.TraceID = d.U64()
	env.Hop = d.U8()
	env.DeadlineMillis = d.U32()
	if env.Args, err = decodeArgs(d, args); err != nil {
		return nil, CallEnvelope{}, err
	}
	return method, env, nil
}

// marshal encodes env into one exactly sized buffer, its bulk bytes
// included when full is set. Marshal has no error to return, so a list
// AppendCall refuses encodes as the header and a count past the cap,
// which every decoder refuses with ErrTooManyArgs.
func (env *CallEnvelope) marshal(full bool) []byte {
	n := 4 + len(env.Method) + 8 + 1 + 4 + 1
	for i := range env.Args {
		n += env.Args[i].WireSize()
	}
	if !full {
		n -= len(env.bulk())
	}
	hdr, bulk, err := AppendCall(make([]byte, 0, n), env, env.Args)
	if err != nil {
		return append(hdr, MaxCallArgs+1)
	}
	if full {
		return append(hdr, bulk...)
	}
	return hdr
}

// Marshal encodes the full envelope, inline bytes included.
func (env CallEnvelope) Marshal() []byte { return env.marshal(true) }

// MarshalHdr encodes the envelope with the final argument's inline bytes
// omitted (its length prefix stays), for transports that write those
// bytes as their own vectored segment: Marshal() is MarshalHdr() followed
// by the final argument's Inline bytes. Envelopes whose last argument is
// a Ref (or that have no arguments) get the full encoding.
func (env CallEnvelope) MarshalHdr() []byte { return env.marshal(false) }

// bulk returns the bytes MarshalHdr omitted (nil when MarshalHdr is the
// full encoding).
func (env CallEnvelope) bulk() []byte {
	if n := len(env.Args); n > 0 && !env.Args[n-1].IsRef {
		return env.Args[n-1].Inline
	}
	return nil
}

// UnmarshalCallEnvelope decodes a call envelope into fresh storage.
// Inline argument bytes alias b.
func UnmarshalCallEnvelope(b []byte) (CallEnvelope, error) {
	method, env, err := DecodeCall(b, nil)
	if err != nil {
		return CallEnvelope{}, err
	}
	env.Method = string(method)
	return env, nil
}

// AppendReturn appends the return envelope of args to b: the successful
// response body of one liverpc call, its result list in the same
// size-aware argument codec (errors travel as non-OK frame statuses, not
// in an envelope). More than MaxCallArgs results are refused with
// ErrTooManyArgs.
func AppendReturn[A Arg](b []byte, args []A) ([]byte, error) {
	b, _, err := appendArgs(b, args, false)
	return b, err
}

// DecodeReturn decodes a return envelope's result list into args'
// storage, inline result bytes aliasing b. Bytes after the list are
// refused.
func DecodeReturn(b []byte, args []CallArg) ([]CallArg, error) {
	return decodeArgs(rpc.NewDec(b), args)
}
