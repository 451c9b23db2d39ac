package dmwire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dm"
)

// FuzzCallEnvelope throws arbitrary bodies at the liverpc call- and
// return-envelope decoders: no input may panic, every accepted body must
// re-encode to exactly itself (the envelope codec is canonical and
// refuses trailing bytes), decoded envelopes must respect the documented
// caps, and decoding into argument storage that last held another
// envelope's arguments must equal a decode into fresh storage.
func FuzzCallEnvelope(f *testing.F) {
	// One arg per wire form: inline, unlocated ref, located ref with an
	// empty and with a non-empty replica list.
	env := CallEnvelope{
		Method:         "chain.do",
		TraceID:        0xabcdef,
		Hop:            2,
		DeadlineMillis: 900,
		Args: []CallArg{
			{Inline: []byte("inline arg")},
			{IsRef: true, Ref: dm.Ref{Server: 1, Key: 99, Size: 1 << 16}},
			{IsRef: true, Located: true, Ref: dm.Ref{Server: 7, Key: 3, Size: 4096}},
			{IsRef: true, Located: true, Ref: dm.Ref{Server: 2, Key: ReplicaKeyBit | 5, Size: 4096}, Replicas: []uint32{2, 0}},
		},
	}
	f.Add(uint8(0), env.Marshal())
	f.Add(uint8(0), CallEnvelope{Method: "m"}.Marshal())
	f.Add(uint8(1), marshalReturn(env.Args))
	f.Add(uint8(1), marshalReturn(nil))
	// dirty is argument storage that last held env's arguments, the
	// replica list included, as a pooled call's storage would.
	dirty := func() []CallArg { return append(make([]CallArg, 0, MaxCallArgs), env.Args...) }
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		if which%2 == 0 {
			e, err := UnmarshalCallEnvelope(body)
			if err != nil {
				return
			}
			if len(e.Method) > MaxMethodLen || len(e.Args) > MaxCallArgs {
				t.Fatalf("decoded envelope violates caps: method=%d args=%d", len(e.Method), len(e.Args))
			}
			reenc := e.Marshal()
			if !bytes.Equal(reenc, body) {
				t.Fatal("CallEnvelope: accepted body does not round-trip")
			}
			if joined := append(append([]byte(nil), e.MarshalHdr()...), e.bulk()...); !bytes.Equal(joined, reenc) {
				t.Fatal("CallEnvelope: MarshalHdr+bulk diverges from Marshal")
			}
			method, reused, err := DecodeCall(body, dirty())
			if err != nil || string(method) != e.Method {
				t.Fatalf("CallEnvelope: reused-storage decode: %q, %v", method, err)
			}
			reused.Method = e.Method
			if !sameEnvelope(reused, e) {
				t.Fatalf("CallEnvelope: reused-storage decode %+v, fresh %+v", reused, e)
			}
			return
		}
		args, err := DecodeReturn(body, nil)
		if err != nil {
			return
		}
		if len(args) > MaxCallArgs {
			t.Fatalf("decoded return envelope violates caps: args=%d", len(args))
		}
		if !bytes.Equal(marshalReturn(args), body) {
			t.Fatal("return envelope: accepted body does not round-trip")
		}
		reused, err := DecodeReturn(body, dirty())
		if err != nil || !sameEnvelope(CallEnvelope{Args: reused}, CallEnvelope{Args: args}) {
			t.Fatalf("return envelope: reused-storage decode %+v (%v), fresh %+v", reused, err, args)
		}
	})
}

// sameEnvelope compares two decoded envelopes field by field, an empty
// argument list equal to a nil one.
func sameEnvelope(a, b CallEnvelope) bool {
	if a.Method != b.Method || a.TraceID != b.TraceID || a.Hop != b.Hop ||
		a.DeadlineMillis != b.DeadlineMillis || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !reflect.DeepEqual(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}
