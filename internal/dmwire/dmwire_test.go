package dmwire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dm"
	"repro/internal/rpc"
)

func TestStatusRoundTrip(t *testing.T) {
	for _, err := range []error{dm.ErrOutOfMemory, dm.ErrBadAddress, dm.ErrBadRef, dm.ErrOutOfRange, ErrStale} {
		status := StatusOf(err)
		back := ErrOf(status, err.Error())
		if !errors.Is(back, err) {
			t.Errorf("round trip lost %v (status %d, got %v)", err, status, back)
		}
	}
	if StatusOf(nil) != StatusOK {
		t.Error("nil error should map to StatusOK")
	}
	if ErrOf(StatusOK, "") != nil {
		t.Error("StatusOK should map to nil")
	}
	// Unknown errors survive as AppError with the message.
	odd := errors.New("weird")
	back := ErrOf(StatusOf(odd), odd.Error())
	var ae *rpc.AppError
	if !errors.As(back, &ae) || ae.Msg != "weird" {
		t.Errorf("unknown error mapped to %v", back)
	}
}

func TestBodyCodecsRoundTrip(t *testing.T) {
	{
		r, err := UnmarshalRegisterResp(RegisterResp{LeaseMillis: 15000}.Marshal())
		if err != nil || r.LeaseMillis != 15000 {
			t.Errorf("RegisterResp: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalHeartbeatResp(HeartbeatResp{Epoch: 250}.Marshal())
		if err != nil || r.Epoch != 250 {
			t.Errorf("HeartbeatResp: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalAllocReq(AllocReq{Size: 1 << 40}.Marshal())
		if err != nil || r.Size != 1<<40 {
			t.Errorf("AllocReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalAllocResp(AllocResp{Addr: 0xABC}.Marshal())
		if err != nil || r.Addr != 0xABC {
			t.Errorf("AllocResp: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalFreeReq(FreeReq{Addr: 0x1000}.Marshal())
		if err != nil || r.Addr != 0x1000 {
			t.Errorf("FreeReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalCreateRefReq(CreateRefReq{Addr: 0x2000, Size: 555}.Marshal())
		if err != nil || r.Addr != 0x2000 || r.Size != 555 {
			t.Errorf("CreateRefReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalRefKeyResp(RefKeyResp{Key: 99}.Append(nil))
		if err != nil || r.Key != 99 {
			t.Errorf("RefKeyResp: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalMapRefReq(MapRefReq{Key: 88}.Marshal())
		if err != nil || r.Key != 88 {
			t.Errorf("MapRefReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalMapRefResp(MapRefResp{Addr: 0x3000, Size: 777}.Marshal())
		if err != nil || r.Addr != 0x3000 || r.Size != 777 {
			t.Errorf("MapRefResp: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalFreeRefReq(FreeRefReq{Key: 66}.Append(nil))
		if err != nil || r.Key != 66 {
			t.Errorf("FreeRefReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalReadReq(ReadReq{Addr: 0x4000, Size: 4096}.Marshal())
		if err != nil || r.Addr != 0x4000 || r.Size != 4096 {
			t.Errorf("ReadReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalWriteReq(WriteReq{Addr: 0x5000, Data: []byte("abc")}.Marshal())
		if err != nil || r.Addr != 0x5000 || !bytes.Equal(r.Data, []byte("abc")) {
			t.Errorf("WriteReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalStageReq(StageReq{Data: []byte("xyz")}.Marshal())
		if err != nil || !bytes.Equal(r.Data, []byte("xyz")) {
			t.Errorf("StageReq: %+v %v", r, err)
		}
	}
	{
		r, err := UnmarshalReadRefReq(ReadRefReq{Key: 9, Off: 100, Size: 200}.Append(nil))
		if err != nil || r.Key != 9 || r.Off != 100 || r.Size != 200 {
			t.Errorf("ReadRefReq: %+v %v", r, err)
		}
	}
}

func TestShortBodiesRejected(t *testing.T) {
	short := []byte{1, 2}
	if _, err := UnmarshalAllocReq(short); err == nil {
		t.Error("short AllocReq accepted")
	}
	if _, err := UnmarshalCreateRefReq(short); err == nil {
		t.Error("short CreateRefReq accepted")
	}
	if _, err := UnmarshalMapRefResp(short); err == nil {
		t.Error("short MapRefResp accepted")
	}
	if _, err := UnmarshalReadRefReq(short); err == nil {
		t.Error("short ReadRefReq accepted")
	}
	if _, err := UnmarshalRegisterResp(nil); err == nil {
		t.Error("empty RegisterResp accepted")
	}
}

func TestWriteReqProperty(t *testing.T) {
	prop := func(addr uint64, data []byte) bool {
		r, err := UnmarshalWriteReq(WriteReq{Addr: dm.RemoteAddr(addr), Data: data}.Marshal())
		return err == nil && uint64(r.Addr) == addr && bytes.Equal(r.Data, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMethodsAreDistinct(t *testing.T) {
	seen := map[rpc.Method]bool{}
	for _, m := range []rpc.Method{MRegister, MAlloc, MFree, MCreateRef, MMapRef,
		MFreeRef, MRead, MWrite, MStage, MReadRef, MHeartbeat} {
		if seen[m] {
			t.Fatalf("duplicate method id %d", m)
		}
		seen[m] = true
	}
	if len(seen) != 11 {
		t.Fatalf("expected 11 methods, got %d", len(seen))
	}
}

// TestMarshalHdrMatchesMarshal pins the zero-copy framing contract for
// the payload-carrying requests: WriteReq's Marshal() equals MarshalHdr()
// followed by Data, so a transport writing (hdr, data) as separate
// vectored segments produces the identical wire body, and a StageReq's
// body is its Data alone.
func TestMarshalHdrMatchesMarshal(t *testing.T) {
	wprop := func(addr uint64, data []byte) bool {
		r := WriteReq{Addr: dm.RemoteAddr(addr), Data: data}
		return bytes.Equal(r.Marshal(), append(r.MarshalHdr(), data...))
	}
	if err := quick.Check(wprop, nil); err != nil {
		t.Fatalf("WriteReq: %v", err)
	}
	sprop := func(data []byte) bool {
		return bytes.Equal(StageReq{Data: data}.Marshal(), data)
	}
	if err := quick.Check(sprop, nil); err != nil {
		t.Fatalf("StageReq: %v", err)
	}
}

// TestStageAtReqForms pins the one stage_at wire form at every replica
// count the pool can send: the body round-trips (Marshal and
// AppendHdr+Data alike), every strict prefix that cuts into the
// replica list is refused, and a count past MaxRefReplicas is rejected.
func TestStageAtReqForms(t *testing.T) {
	data := []byte("payload")
	for _, n := range []int{0, 1, 2, MaxRefReplicas} {
		var reps []uint32
		for i := 0; i < n; i++ {
			reps = append(reps, uint32(3*i+1))
		}
		req := StageAtReq{Key: ReplicaKeyBit | 77, Replicas: reps, Data: data}
		b := req.Marshal()
		if want := stageAtFixed + 4*n + len(data); len(b) != want {
			t.Fatalf("n=%d: %d-byte body, want %d", n, len(b), want)
		}
		if !bytes.Equal(b, append(req.AppendHdr(nil), data...)) {
			t.Fatalf("n=%d: Marshal != AppendHdr + Data", n)
		}
		got, err := UnmarshalStageAtReq(b)
		if err != nil || got.Key != req.Key ||
			!reflect.DeepEqual(got.Replicas, reps) || !bytes.Equal(got.Data, data) {
			t.Fatalf("n=%d: round trip %+v, %v", n, got, err)
		}
		// Anything shorter than the full prefix is malformed; past it the
		// remainder is (possibly empty) payload.
		for i := 0; i < stageAtFixed+4*n; i++ {
			if _, err := UnmarshalStageAtReq(b[:i]); err == nil {
				t.Fatalf("n=%d: %d-byte truncation accepted", n, i)
			}
		}
	}
	over := rpc.NewEnc(0).U64(ReplicaKeyBit | 1).U8(MaxRefReplicas + 1)
	for i := 0; i <= MaxRefReplicas; i++ {
		over.U32(uint32(i))
	}
	if _, err := UnmarshalStageAtReq(over.Raw(data).Bytes()); !errors.Is(err, errTooManyReplicas) {
		t.Fatalf("count MaxRefReplicas+1: %v, want errTooManyReplicas", err)
	}
	// The encoder never emits such a body: over-long lists are truncated.
	long := StageAtReq{Key: ReplicaKeyBit | 1, Replicas: make([]uint32, MaxRefReplicas+3)}
	if got, err := UnmarshalStageAtReq(long.Marshal()); err != nil || len(got.Replicas) != MaxRefReplicas {
		t.Fatalf("over-long list: %d replicas, %v", len(got.Replicas), err)
	}
}

// TestAdoptRefReqForms pins adopt_ref's one wire form: the body
// round-trips with and without a replica list, and every truncation and
// any trailing byte is refused.
func TestAdoptRefReqForms(t *testing.T) {
	for _, reps := range [][]uint32{nil, {0, 2}} {
		req := AdoptRefReq{Key: ReplicaKeyBit | 7, NewKey: ReplicaKeyBit | 8, Replicas: reps}
		b := req.Append(nil)
		if want := 8 + 8 + 1 + 4*len(reps); len(b) != want {
			t.Fatalf("%d replicas: %d-byte body, want %d", len(reps), len(b), want)
		}
		got, err := UnmarshalAdoptRefReq(b)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%d replicas: round trip %+v, %v", len(reps), got, err)
		}
		for i := 0; i < len(b); i++ {
			if _, err := UnmarshalAdoptRefReq(b[:i]); err == nil {
				t.Fatalf("%d replicas: %d-byte truncation accepted", len(reps), i)
			}
		}
		if _, err := UnmarshalAdoptRefReq(append(b, 0)); err == nil {
			t.Fatalf("%d replicas: trailing byte accepted", len(reps))
		}
	}
}

// TestAppendKeepsPrefix pins the in-place encoders' contract: each
// appends exactly its body after whatever b already holds, and with room
// in b it writes there without reallocating.
func TestAppendKeepsPrefix(t *testing.T) {
	prefix := []byte("pre")
	for _, tc := range []struct {
		name string
		enc  func([]byte) []byte
	}{
		{"RefKeyResp", RefKeyResp{Key: 7}.Append},
		{"FreeRefReq", FreeRefReq{Key: 7}.Append},
		{"ReadRefReq", ReadRefReq{Key: 7, Off: 1, Size: 2}.Append},
		{"AdoptRefReq", AdoptRefReq{Key: 7, NewKey: ReplicaKeyBit | 8, Replicas: []uint32{1, 2}}.Append},
		{"StageAtReq", StageAtReq{Key: ReplicaKeyBit | 7, Replicas: []uint32{3}}.AppendHdr},
	} {
		var buf [64]byte
		b := tc.enc(append(buf[:0], prefix...))
		if !bytes.Equal(b, append(append([]byte(nil), prefix...), tc.enc(nil)...)) {
			t.Errorf("%s: Append(prefix) = %x, want prefix + body", tc.name, b)
		}
		if &b[0] != &buf[0] {
			t.Errorf("%s: Append reallocated a buffer with room", tc.name)
		}
	}
}
