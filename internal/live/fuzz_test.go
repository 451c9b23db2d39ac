package live

import (
	"bytes"
	"testing"

	"repro/internal/dmwire"
)

// FuzzReadFrame hardens the TCP framing against arbitrary streams: no
// panics, a frame that round-trips must match, and a request whose stamp
// and method parse must re-encode to the same payload.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	var good, stamped bytes.Buffer
	_ = writeFrame(&good, kindRequest, 42, []byte("hello"))
	f.Add(good.Bytes())
	_ = writeFrame(&stamped, kindRequest, 43, stampedRequest(7, sessionWindow+3, dmwire.MReadRef,
		dmwire.ReadRefReq{Key: 9, Size: 16}.Append(nil)))
	f.Add(stamped.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, reqID, payload, err := readFrame(bytes.NewReader(data), DefaultMaxFrameSize)
		// The pooled-buffer reader must agree with the plain one on both
		// acceptance and content.
		var hdr [frameHeaderSize]byte
		bkind, breqID, bpayload, berr := readFrameBuf(bytes.NewReader(data), hdr[:], DefaultMaxFrameSize)
		if (err == nil) != (berr == nil) {
			t.Fatalf("readFrame err=%v, readFrameBuf err=%v", err, berr)
		}
		if err != nil {
			return
		}
		if bkind != kind || breqID != reqID || !bytes.Equal(bpayload, payload) {
			t.Fatal("readFrame and readFrameBuf disagree")
		}
		putBuf(bpayload)
		if session, seq, m, body, ok := parseRequest(payload); ok {
			if !bytes.Equal(stampedRequest(session, seq, m, body), payload) {
				t.Fatal("request stamp re-encode mismatch")
			}
		} else if len(payload) >= stampSize+2 {
			t.Fatalf("a %d-byte request did not parse", len(payload))
		}
		var out bytes.Buffer
		if err := writeFrame(&out, kind, reqID, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("frame re-encode mismatch")
		}
	})
}

// FuzzServerDispatch throws arbitrary bodies at every method through a
// registered session; the server must return an error status rather
// than panic, and its invariants must hold afterwards.
func FuzzServerDispatch(f *testing.F) {
	f.Add(uint16(0x0100), []byte{})
	f.Add(uint16(0x0101), []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 16})
	f.Add(uint16(0x0109), make([]byte, 16))
	f.Add(uint16(dmwire.MStageAt), dmwire.StageAtReq{
		Key: dmwire.ReplicaKeyBit | 1, Replicas: []uint32{0, 1}, Data: []byte("hi"),
	}.Marshal())
	f.Add(uint16(dmwire.MConsumeRef), dmwire.ReadRefReq{Key: 0, Size: 16}.Append(nil))
	f.Add(uint16(dmwire.MAdoptRef), dmwire.AdoptRefReq{Key: 0}.Append(nil))
	f.Add(uint16(dmwire.MAdoptRef), dmwire.AdoptRefReq{
		Key: dmwire.ReplicaKeyBit | 1, NewKey: dmwire.ReplicaKeyBit | 2, Replicas: []uint32{0, 1},
	}.Append(nil))
	f.Fuzz(func(t *testing.T, m uint16, body []byte) {
		s := NewServer(ServerConfig{NumPages: 16, PageSize: 512})
		s.dispatch(registeredSession(t, s), methodOf(m), body)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants broken by method %#x: %v", m, err)
		}
	})
}
