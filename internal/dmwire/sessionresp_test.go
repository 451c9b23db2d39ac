package dmwire

import (
	"errors"
	"testing"
)

// TestRegisterRespForms: every combination of the optional fields —
// shard identity, epoch — round-trips through the one 17-byte
// register-response form.
func TestRegisterRespForms(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    RegisterResp
	}{
		{"base", RegisterResp{LeaseMillis: 15000}},
		{"shard", RegisterResp{LeaseMillis: 15000, HasShard: true, Shard: 3}},
		{"epoch", RegisterResp{LeaseMillis: 15000, Epoch: 9}},
		{"epoch+shard", RegisterResp{LeaseMillis: 500, HasShard: true, Shard: 2, Epoch: 1 << 40}},
		{"max", RegisterResp{LeaseMillis: 1<<32 - 1, HasShard: true, Shard: 1<<32 - 1, Epoch: 1<<64 - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.r.Marshal()
			if len(b) != 17 {
				t.Fatalf("marshalled length = %d, want 17", len(b))
			}
			got, err := UnmarshalRegisterResp(b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.r {
				t.Fatalf("round trip = %+v, want %+v", got, tc.r)
			}
		})
	}
}

// TestHeartbeatRespForms: the epoch rides the one 8-byte
// heartbeat-response form, zero or not.
func TestHeartbeatRespForms(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    HeartbeatResp
	}{
		{"base", HeartbeatResp{}},
		{"epoch", HeartbeatResp{Epoch: 7}},
		{"max", HeartbeatResp{Epoch: 1<<64 - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.r.Marshal()
			if len(b) != 8 {
				t.Fatalf("marshalled length = %d, want 8", len(b))
			}
			got, err := UnmarshalHeartbeatResp(b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.r {
				t.Fatalf("round trip = %+v, want %+v", got, tc.r)
			}
		})
	}
}

// TestSessionRespFixedLength: the register and heartbeat responses are
// fixed-length, so every truncation of a valid body, a trailing byte
// past it, and a register flags byte with any reserved bit set are all
// rejected.
func TestSessionRespFixedLength(t *testing.T) {
	reg := RegisterResp{LeaseMillis: 500, HasShard: true, Shard: 2, Epoch: 3}.Marshal()
	hb := HeartbeatResp{Epoch: 7}.Marshal()
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"RegisterResp", reg, func(b []byte) error { _, err := UnmarshalRegisterResp(b); return err }},
		{"HeartbeatResp", hb, func(b []byte) error { _, err := UnmarshalHeartbeatResp(b); return err }},
	} {
		for i := 0; i < len(tc.body); i++ {
			if err := tc.decode(tc.body[:i]); err == nil {
				t.Fatalf("%s: %d-byte truncation accepted", tc.name, i)
			}
		}
		if err := tc.decode(append(append([]byte(nil), tc.body...), 0)); !errors.Is(err, errBodyForm) {
			t.Fatalf("%s: trailing byte: %v, want errBodyForm", tc.name, err)
		}
	}
	for bit := 1; bit < 8; bit++ {
		bad := append([]byte(nil), reg...)
		bad[4] |= 1 << bit
		if _, err := UnmarshalRegisterResp(bad); !errors.Is(err, errBodyForm) {
			t.Fatalf("reserved flag bit %d: %v, want errBodyForm", bit, err)
		}
	}
}
