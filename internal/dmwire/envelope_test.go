package dmwire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dm"
)

func sampleEnvelope() CallEnvelope {
	return CallEnvelope{
		Method:         "chain.do",
		TraceID:        0xfeedface,
		Hop:            3,
		DeadlineMillis: 1500,
		Args: []CallArg{
			{IsRef: true, Ref: dm.Ref{Server: 1, Key: 42, Size: 1 << 20}},
			{Inline: []byte("small inline value")},
		},
	}
}

func TestCallEnvelopeRoundTrip(t *testing.T) {
	env := sampleEnvelope()
	got, err := UnmarshalCallEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != env.Method || got.TraceID != env.TraceID ||
		got.Hop != env.Hop || got.DeadlineMillis != env.DeadlineMillis {
		t.Fatalf("header fields: got %+v, want %+v", got, env)
	}
	if len(got.Args) != 2 || !got.Args[0].IsRef || got.Args[0].Ref != env.Args[0].Ref {
		t.Fatalf("ref arg: got %+v", got.Args)
	}
	if got.Args[1].IsRef || !bytes.Equal(got.Args[1].Inline, env.Args[1].Inline) {
		t.Fatalf("inline arg: got %+v", got.Args[1])
	}
}

func TestCallEnvelopeMarshalHdrBulk(t *testing.T) {
	env := sampleEnvelope()
	// Last arg inline: MarshalHdr + bulk must reassemble to Marshal.
	joined := append(append([]byte(nil), env.MarshalHdr()...), env.bulk()...)
	if !bytes.Equal(joined, env.Marshal()) {
		t.Fatal("MarshalHdr+bulk != Marshal for trailing inline arg")
	}
	// Last arg a ref: MarshalHdr degrades to the full encoding, no bulk.
	env.Args[0], env.Args[1] = env.Args[1], env.Args[0]
	if env.bulk() != nil {
		t.Fatal("bulk non-nil with trailing ref arg")
	}
	if !bytes.Equal(env.MarshalHdr(), env.Marshal()) {
		t.Fatal("MarshalHdr != Marshal for trailing ref arg")
	}
	// No args at all.
	env.Args = nil
	if env.bulk() != nil || !bytes.Equal(env.MarshalHdr(), env.Marshal()) {
		t.Fatal("empty-args envelope mishandled")
	}
}

// TestCallEnvelopeMarshalHdrSized: the header of a bulk inline arg is
// sized without the bytes it leaves out, so a by-value hop does not
// allocate a payload-sized buffer to write a few dozen bytes into.
func TestCallEnvelopeMarshalHdrSized(t *testing.T) {
	env := CallEnvelope{Method: "chain.do", Args: []CallArg{{Inline: make([]byte, 32<<10)}}}
	hdr := env.MarshalHdr()
	if cap(hdr) > len(hdr) {
		t.Fatalf("MarshalHdr of a 32 KiB inline arg: len %d, cap %d", len(hdr), cap(hdr))
	}
	if !bytes.Equal(append(hdr, env.bulk()...), env.Marshal()) {
		t.Fatal("MarshalHdr+bulk != Marshal")
	}
}

// marshalReturn encodes a return envelope the tests know fits the cap.
func marshalReturn(args []CallArg) []byte {
	b, err := AppendReturn(nil, args)
	if err != nil {
		panic(err)
	}
	return b
}

func TestReturnEnvelopeRoundTrip(t *testing.T) {
	args := []CallArg{
		{Inline: []byte{1, 2, 3}},
		{IsRef: true, Ref: dm.Ref{Server: 0, Key: 7, Size: 4096}},
	}
	got, err := DecodeReturn(marshalReturn(args), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0].Inline, []byte{1, 2, 3}) ||
		got[1].Ref != args[1].Ref {
		t.Fatalf("round trip: got %+v", got)
	}
	// Empty result list round-trips too.
	empty, err := DecodeReturn(marshalReturn(nil), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty return: %+v, %v", empty, err)
	}
}

func TestCallEnvelopeCaps(t *testing.T) {
	long := CallEnvelope{Method: string(make([]byte, MaxMethodLen+1))}
	if _, err := UnmarshalCallEnvelope(long.Marshal()); !errors.Is(err, errMethodTooLong) {
		t.Fatalf("oversized method = %v, want errMethodTooLong", err)
	}
	many := CallEnvelope{Method: "m", Args: make([]CallArg, MaxCallArgs+1)}
	if _, err := UnmarshalCallEnvelope(many.Marshal()); !errors.Is(err, ErrTooManyArgs) {
		t.Fatalf("oversized arg list = %v, want ErrTooManyArgs", err)
	}
	at := CallEnvelope{Method: "m", Args: make([]CallArg, MaxCallArgs)}
	if _, err := UnmarshalCallEnvelope(at.Marshal()); err != nil {
		t.Fatalf("arg list at the cap = %v", err)
	}
}

func TestCallEnvelopeMalformed(t *testing.T) {
	env := sampleEnvelope()
	full := env.Marshal()
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", full[:3]},
		{"truncated args", full[:len(full)-5]},
		{"hdr-only (bulk missing)", env.MarshalHdr()},
	} {
		if _, err := UnmarshalCallEnvelope(tc.b); err == nil {
			t.Fatalf("%s: decode accepted malformed envelope", tc.name)
		}
	}
	if _, err := DecodeReturn([]byte{2, 0, 0xff}, nil); err == nil {
		t.Fatal("truncated return envelope accepted")
	}
}

// argWire returns a's encoding on its own: a one-arg return envelope
// minus the leading count byte.
func argWire(a CallArg) []byte { return marshalReturn([]CallArg{a})[1:] }

// decodeArg decodes one argument encoding.
func decodeArg(b []byte) (CallArg, error) {
	args, err := DecodeReturn(append([]byte{1}, b...), nil)
	if err != nil {
		return CallArg{}, err
	}
	return args[0], nil
}

// TestLocatedRefRoundTrip pins the located arg with a replica count of
// 0 — flag 2, the 20-byte ref, a zero count: 22 bytes — next to the
// 21-byte unlocated form, and rejects every other flag.
func TestLocatedRefRoundTrip(t *testing.T) {
	ref := dm.Ref{Server: 1234, Key: 0xdeadbeef, Size: 1 << 20}
	located := CallArg{IsRef: true, Located: true, Ref: ref}
	b := argWire(located)
	if len(b) != 22 || len(b) != located.WireSize() || b[0] != 2 || b[21] != 0 {
		t.Fatalf("located arg wire = %x (WireSize %d), want 2 | ref | 0", b, located.WireSize())
	}
	got, err := decodeArg(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsRef || !got.Located || got.Ref != ref || got.Replicas != nil {
		t.Fatalf("located round trip = %+v", got)
	}

	unlocated := CallArg{IsRef: true, Ref: dm.Ref{Key: 42, Size: 4096}}
	b = argWire(unlocated)
	if len(b) != 21 || len(b) != unlocated.WireSize() || b[0] != 1 {
		t.Fatalf("unlocated arg wire = %x (WireSize %d)", b, unlocated.WireSize())
	}
	if got, err := decodeArg(b); err != nil || got.Located || got.Ref != unlocated.Ref {
		t.Fatalf("unlocated round trip = %+v, %v", got, err)
	}

	for _, flag := range []byte{3, 4, 0xff} {
		bad := append([]byte{flag}, argWire(located)[1:]...)
		if _, err := decodeArg(bad); !errors.Is(err, errBadEnvelope) {
			t.Fatalf("flag %d: %v, want errBadEnvelope", flag, err)
		}
	}
}

// TestReplicatedRefRoundTrip pins the replica list of a located arg at
// the cap: MaxRefReplicas round-trips, a wire count of MaxRefReplicas+1
// is rejected before allocation, and encoding a longer list truncates
// it to the cap, so every encoder output decodes.
func TestReplicatedRefRoundTrip(t *testing.T) {
	ref := dm.Ref{Server: 7, Key: ReplicaKeyBit | 99, Size: 1 << 16}
	reps := make([]uint32, MaxRefReplicas+3)
	for i := range reps {
		reps[i] = uint32(i)
	}
	full := CallArg{IsRef: true, Located: true, Ref: ref, Replicas: reps[:MaxRefReplicas]}
	b := argWire(full)
	if want := 22 + 4*MaxRefReplicas; len(b) != want || full.WireSize() != want {
		t.Fatalf("%d-replica arg: %d bytes (WireSize %d), want %d", MaxRefReplicas, len(b), full.WireSize(), want)
	}
	got, err := decodeArg(b)
	if err != nil || !reflect.DeepEqual(got, full) {
		t.Fatalf("%d-replica round trip = %+v, %v", MaxRefReplicas, got, err)
	}

	over := append(append([]byte(nil), b[:21]...), MaxRefReplicas+1)
	for i := 0; i <= MaxRefReplicas; i++ {
		over = append(over, 0, 0, 0, byte(i))
	}
	if _, err := decodeArg(over); !errors.Is(err, errTooManyReplicas) {
		t.Fatalf("count MaxRefReplicas+1: %v, want errTooManyReplicas", err)
	}

	long := CallArg{IsRef: true, Located: true, Ref: ref, Replicas: reps}
	if lb := argWire(long); !bytes.Equal(lb, b) || long.WireSize() != len(b) {
		t.Fatalf("over-long list not truncated to the cap: %d bytes, WireSize %d", len(lb), long.WireSize())
	}
}

// TestEnvelopeReplicatedArg pins a located arg with replica hints in
// call and return envelopes: the hint set survives the round trip, a
// list alone marks the arg located, and each hint costs 4 bytes over
// the 22-byte located form.
func TestEnvelopeReplicatedArg(t *testing.T) {
	hinted := CallArg{IsRef: true, Replicas: []uint32{2, 5},
		Ref: dm.Ref{Server: 2, Key: ReplicaKeyBit | 4, Size: 128}}
	env := CallEnvelope{Method: "m", Args: []CallArg{hinted, {Inline: []byte("tail")}}}
	dec, err := UnmarshalCallEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	a := dec.Args[0]
	if !a.IsRef || !a.Located || !reflect.DeepEqual(a.Replicas, hinted.Replicas) {
		t.Fatalf("replicated arg lost its hint set: %+v", a)
	}
	if !bytes.Equal(dec.Marshal(), env.Marshal()) {
		t.Fatal("envelope with replicated arg does not round-trip")
	}
	if n := len(argWire(a)); n != 1+dm.EncodedRefSize+1+4*2 {
		t.Fatalf("2-replica arg is %d bytes", n)
	}

	rdec, err := DecodeReturn(marshalReturn([]CallArg{a}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rdec[0], a) {
		t.Fatalf("return envelope lost replicas: %+v", rdec[0])
	}
}

// TestEnvelopeLocatedArg pins the located and unlocated ref forms side
// by side inside one call envelope.
func TestEnvelopeLocatedArg(t *testing.T) {
	env := CallEnvelope{
		Method: "m",
		Args: []CallArg{
			{IsRef: true, Located: true, Ref: dm.Ref{Server: 3, Key: 7, Size: 64}},
			{IsRef: true, Ref: dm.Ref{Server: 0, Key: 8, Size: 32}},
			{Inline: []byte("tail")},
		},
	}
	dec, err := UnmarshalCallEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Args) != 3 {
		t.Fatalf("decoded %d args, want 3", len(dec.Args))
	}
	if !dec.Args[0].Located || dec.Args[0].Ref.Server != 3 {
		t.Fatalf("located arg lost its shard: %+v", dec.Args[0])
	}
	if dec.Args[1].Located {
		t.Fatalf("unlocated ref arg decoded as located: %+v", dec.Args[1])
	}
	if !bytes.Equal(dec.Marshal(), env.Marshal()) {
		t.Fatal("envelope with located arg does not round-trip")
	}
}

// TestEnvelopeTrailingBytesRefused: both envelopes end with their
// argument list, so a byte after it is refused, as UnmarshalAdoptRefReq
// refuses one — otherwise a count that wrapped on the wire could pass
// with its tail ignored.
func TestEnvelopeTrailingBytesRefused(t *testing.T) {
	call := append(sampleEnvelope().Marshal(), 0)
	if _, err := UnmarshalCallEnvelope(call); !errors.Is(err, errBadEnvelope) {
		t.Fatalf("call envelope with a trailing byte: %v, want errBadEnvelope", err)
	}
	ret := append(marshalReturn(sampleEnvelope().Args), 0)
	if _, err := DecodeReturn(ret, nil); !errors.Is(err, errBadEnvelope) {
		t.Fatalf("return envelope with a trailing byte: %v, want errBadEnvelope", err)
	}
}

// TestEnvelopeEncodersRefuseOversized: the encoders refuse more than
// MaxCallArgs arguments instead of writing a wrapped count, and
// CallEnvelope.Marshal's encoding of such a list is refused by the
// decoder.
func TestEnvelopeEncodersRefuseOversized(t *testing.T) {
	for _, n := range []int{MaxCallArgs + 1, 256, 300} {
		args := make([]CallArg, n)
		env := CallEnvelope{Method: "m"}
		if _, _, err := AppendCall(nil, &env, args); !errors.Is(err, ErrTooManyArgs) {
			t.Fatalf("AppendCall of %d args: %v, want ErrTooManyArgs", n, err)
		}
		if _, err := AppendReturn(nil, args); !errors.Is(err, ErrTooManyArgs) {
			t.Fatalf("AppendReturn of %d args: %v, want ErrTooManyArgs", n, err)
		}
		env.Args = args
		if _, err := UnmarshalCallEnvelope(env.Marshal()); !errors.Is(err, ErrTooManyArgs) {
			t.Fatalf("Marshal of %d args decodes with %v, want ErrTooManyArgs", n, err)
		}
	}
	hdr, _, err := AppendCall(nil, &CallEnvelope{Method: "m"}, make([]CallArg, MaxCallArgs))
	if err != nil {
		t.Fatal(err)
	}
	if env, err := UnmarshalCallEnvelope(hdr); err != nil || len(env.Args) != MaxCallArgs {
		t.Fatalf("%d args at the cap: %d decoded, %v", MaxCallArgs, len(env.Args), err)
	}
}
