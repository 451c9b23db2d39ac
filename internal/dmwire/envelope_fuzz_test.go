package dmwire

import (
	"bytes"
	"testing"

	"repro/internal/dm"
)

// FuzzCallEnvelope throws arbitrary bodies at the liverpc call- and
// return-envelope decoders: no input may panic, every accepted body must
// re-encode to a prefix-identical wire form (the envelope codec is
// canonical), and decoded envelopes must respect the documented caps.
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
	f.Add(uint8(1), ReturnEnvelope{Args: env.Args}.Marshal())
	f.Add(uint8(1), ReturnEnvelope{}.Marshal())
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
			if len(reenc) > len(body) || !bytes.Equal(reenc, body[:len(reenc)]) {
				t.Fatal("CallEnvelope: accepted body does not round-trip")
			}
			if joined := append(append([]byte(nil), e.MarshalHdr()...), e.Bulk()...); !bytes.Equal(joined, reenc) {
				t.Fatal("CallEnvelope: MarshalHdr+Bulk diverges from Marshal")
			}
			return
		}
		e, err := UnmarshalReturnEnvelope(body)
		if err != nil {
			return
		}
		if len(e.Args) > MaxCallArgs {
			t.Fatalf("decoded return envelope violates caps: args=%d", len(e.Args))
		}
		reenc := e.Marshal()
		if len(reenc) > len(body) || !bytes.Equal(reenc, body[:len(reenc)]) {
			t.Fatal("ReturnEnvelope: accepted body does not round-trip")
		}
	})
}
