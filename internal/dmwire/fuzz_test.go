package dmwire

import (
	"bytes"
	"testing"

	"repro/internal/registry"
)

// FuzzUnmarshal throws arbitrary bodies at every request/response decoder
// in the protocol: none may panic, and any body a decoder accepts must
// re-encode to a prefix-identical wire form (the codecs are
// canonical — no alternative encodings). Seeded with a valid body of
// every codec's one form, zero and full-valued where fields are optional
// or counted, so the fuzzer starts from the interesting region.
func FuzzUnmarshal(f *testing.F) {
	f.Add(uint8(0), RegisterResp{LeaseMillis: 15000}.Marshal())
	f.Add(uint8(0), RegisterResp{LeaseMillis: 15000, HasShard: true, Shard: 2, Epoch: 9}.Marshal())
	f.Add(uint8(1), AllocReq{Size: 4096}.Marshal())
	f.Add(uint8(2), AllocResp{Addr: 0x1000}.Marshal())
	f.Add(uint8(3), FreeReq{Addr: 0x1000}.Marshal())
	f.Add(uint8(4), CreateRefReq{Addr: 0x1000, Size: 64}.Marshal())
	f.Add(uint8(5), RefKeyResp{Key: 9}.Append(nil))
	f.Add(uint8(6), MapRefReq{Key: 9}.Marshal())
	f.Add(uint8(7), MapRefResp{Addr: 0x2000, Size: 64}.Marshal())
	f.Add(uint8(8), FreeRefReq{Key: 9}.Append(nil))
	f.Add(uint8(9), ReadReq{Addr: 0x1000, Size: 64}.Marshal())
	f.Add(uint8(10), WriteReq{Addr: 0x1000, Data: []byte("hi")}.Marshal())
	f.Add(uint8(11), StageReq{Data: []byte("hi")}.Marshal())
	f.Add(uint8(12), ReadRefReq{Key: 9, Off: 0, Size: 2}.Append(nil))
	f.Add(uint8(14), HeartbeatResp{}.Marshal())
	f.Add(uint8(14), HeartbeatResp{Epoch: 9}.Marshal())
	f.Add(uint8(14), HeartbeatResp{Epoch: 1<<64 - 1}.Marshal())
	f.Add(uint8(16), StageAtReq{Key: ReplicaKeyBit | 9, Data: []byte("hi")}.Marshal())
	f.Add(uint8(16), StageAtReq{Key: ReplicaKeyBit | 9, Replicas: []uint32{0, 2}, Data: []byte("hi")}.Marshal())
	f.Add(uint8(16), StageAtReq{Key: ReplicaKeyBit | 9, Replicas: make([]uint32, MaxRefReplicas), Data: []byte("hi")}.Marshal())
	f.Add(uint8(17), RegPutReq{Entry: registry.Entry{Key: ReplicaKeyBit | 9, Size: 64, Epoch: 1, Replicas: []uint32{0, 2}}}.Marshal())
	f.Add(uint8(18), RegGetResp{Entry: registry.Entry{Key: ReplicaKeyBit | 9, Size: 64, Epoch: 3, Replicas: []uint32{1}}}.Marshal())
	f.Add(uint8(19), RegSyncResp{Entries: []registry.Entry{
		{Key: ReplicaKeyBit | 9, Size: 64, Epoch: 1, Replicas: []uint32{0, 2}},
		{Key: ReplicaKeyBit | 10, Size: 32, Epoch: 2, Replicas: []uint32{1}},
	}}.Marshal())
	f.Add(uint8(19), RegSyncResp{}.Marshal())
	f.Add(uint8(13), RegSyncReq{AfterKey: ReplicaKeyBit, Limit: 256}.Marshal())
	f.Add(uint8(13), RegGetReq{Key: ReplicaKeyBit | 9}.Marshal())
	f.Add(uint8(15), AdoptRefReq{Key: 9}.Append(nil))
	f.Add(uint8(15), AdoptRefReq{Key: 9, NewKey: ReplicaKeyBit | 11}.Append(nil))
	f.Add(uint8(15), AdoptRefReq{Key: ReplicaKeyBit | 9, NewKey: ReplicaKeyBit | 10, Replicas: []uint32{0, 2}}.Append(nil))
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		check := func(name string, reenc []byte, err error) {
			t.Helper()
			if err != nil {
				return
			}
			if len(reenc) > len(body) || !bytes.Equal(reenc, body[:len(reenc)]) {
				t.Fatalf("%s: accepted body does not round-trip", name)
			}
		}
		switch which % 20 {
		case 0:
			r, err := UnmarshalRegisterResp(body)
			check("RegisterResp", r.Marshal(), err)
		case 1:
			r, err := UnmarshalAllocReq(body)
			check("AllocReq", r.Marshal(), err)
		case 2:
			r, err := UnmarshalAllocResp(body)
			check("AllocResp", r.Marshal(), err)
		case 3:
			r, err := UnmarshalFreeReq(body)
			check("FreeReq", r.Marshal(), err)
		case 4:
			r, err := UnmarshalCreateRefReq(body)
			check("CreateRefReq", r.Marshal(), err)
		case 5:
			r, err := UnmarshalRefKeyResp(body)
			check("RefKeyResp", r.Append(nil), err)
		case 6:
			r, err := UnmarshalMapRefReq(body)
			check("MapRefReq", r.Marshal(), err)
		case 7:
			r, err := UnmarshalMapRefResp(body)
			check("MapRefResp", r.Marshal(), err)
		case 8:
			r, err := UnmarshalFreeRefReq(body)
			check("FreeRefReq", r.Append(nil), err)
		case 9:
			r, err := UnmarshalReadReq(body)
			check("ReadReq", r.Marshal(), err)
		case 10:
			r, err := UnmarshalWriteReq(body)
			check("WriteReq", r.Marshal(), err)
		case 11:
			r, err := UnmarshalStageReq(body)
			check("StageReq", r.Marshal(), err)
		case 12:
			r, err := UnmarshalReadRefReq(body)
			check("ReadRefReq", r.Append(nil), err)
		case 13:
			q, err := UnmarshalRegSyncReq(body)
			check("RegSyncReq", q.Marshal(), err)
			g, err := UnmarshalRegGetReq(body)
			check("RegGetReq", g.Marshal(), err)
		case 14:
			r, err := UnmarshalHeartbeatResp(body)
			check("HeartbeatResp", r.Marshal(), err)
		case 15:
			r, err := UnmarshalAdoptRefReq(body)
			check("AdoptRefReq", r.Append(nil), err)
		case 16:
			r, err := UnmarshalStageAtReq(body)
			check("StageAtReq", r.Marshal(), err)
		case 17:
			r, err := UnmarshalRegPutReq(body)
			check("RegPutReq", r.Marshal(), err)
		case 18:
			r, err := UnmarshalRegGetResp(body)
			check("RegGetResp", r.Marshal(), err)
		case 19:
			r, err := UnmarshalRegSyncResp(body)
			check("RegSyncResp", r.Marshal(), err)
		}
	})
}

// FuzzStatusRoundTrip pins the error-status mapping: any status byte with
// any message must map to an error (or nil for OK) whose status maps back
// to itself for the statuses the protocol defines.
func FuzzStatusRoundTrip(f *testing.F) {
	for s := byte(0); s <= StatusStale; s++ {
		f.Add(s, "boom")
	}
	f.Fuzz(func(t *testing.T, status byte, msg string) {
		err := ErrOf(status, msg)
		if status == StatusOK {
			if err != nil {
				t.Fatalf("StatusOK mapped to %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("status %d mapped to nil", status)
		}
		if status <= StatusStale {
			if got := StatusOf(err); got != status {
				t.Fatalf("status %d round-tripped to %d", status, got)
			}
		}
	})
}
