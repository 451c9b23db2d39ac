//go:build !race

package dmwire

import (
	"testing"

	"repro/internal/dm"
)

// Allocation budgets of the envelope codec (DESIGN.md §D9): encoding into
// a caller buffer and decoding into reused argument storage allocate
// nothing, for arguments without replica lists (a decoded list is fresh
// memory, so a handler may keep a ref payload). The race runtime
// allocates on its own, hence the build tag; CI runs these without -race.

// allocArgs is one argument of each replica-free form, the bulk inline
// argument last.
var allocArgs = []CallArg{
	{IsRef: true, Located: true, Ref: dm.Ref{Server: 1, Key: 42, Size: 4096}},
	{Inline: []byte("small inline value")},
	{IsRef: true, Ref: dm.Ref{Server: 2, Key: 7, Size: 1 << 20}},
	{Inline: make([]byte, 4096)},
}

// TestEnvelopeEncodeAllocs: AppendCall and AppendReturn write into a
// caller buffer without allocating.
func TestEnvelopeEncodeAllocs(t *testing.T) {
	env := CallEnvelope{Method: "chain.do", TraceID: 1, Hop: 2, DeadlineMillis: 900}
	buf := make([]byte, 0, 8<<10)
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := AppendCall(buf[:0], &env, allocArgs); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendReturn(buf[:0], allocArgs); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("AppendCall + AppendReturn: %v allocs, want 0", got)
	}
}

// TestEnvelopeDecodeAllocs: DecodeCall and DecodeReturn into reused
// argument storage allocate nothing, the method name included.
func TestEnvelopeDecodeAllocs(t *testing.T) {
	call := CallEnvelope{Method: "chain.do", TraceID: 1, Args: allocArgs}.Marshal()
	ret := marshalReturn(allocArgs)
	args := make([]CallArg, 0, len(allocArgs))
	got := testing.AllocsPerRun(200, func() {
		method, env, err := DecodeCall(call, args)
		if err != nil || string(method) != "chain.do" || len(env.Args) != len(allocArgs) {
			t.Fatalf("DecodeCall: %q, %d args, %v", method, len(env.Args), err)
		}
		res, err := DecodeReturn(ret, args)
		if err != nil || len(res) != len(allocArgs) {
			t.Fatalf("DecodeReturn: %d args, %v", len(res), err)
		}
	})
	if got != 0 {
		t.Fatalf("DecodeCall + DecodeReturn: %v allocs, want 0", got)
	}
}
