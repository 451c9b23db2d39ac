package live

import (
	"testing"
	"time"
)

// TestWriteStatsComputedFieldsQuiesce drives a pipelined async burst
// through one connection and checks the write accounting on both ends:
// the client wrote exactly one frame per request and the server one per
// response, none was dropped, and the computed fields that remain for
// the benchmark harness (Batches, CoalescedFrames) read as Frames.
func TestWriteStatsComputedFieldsQuiesce(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	ccfg := defaultClientConfig()
	ccfg.HeartbeatInterval = -1 // no frames but the burst's
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	// The server counts a frame only after its write returns, which may
	// trail the client's read of it: wait until it has counted its answer
	// to every request so far, so its baseline holds no frame of the
	// burst's setup.
	c0 := cl.node.WriteStats()
	waitFrames(t, srv, c0.Frames)
	s0 := srv.WriteStats()
	src := make([]byte, 512)
	const ops, depth = 400, 16
	ring := make([]*AsyncOp, 0, depth)
	for i := 0; i < ops; i++ {
		if len(ring) == depth {
			if err := ring[0].Wait(); err != nil {
				t.Fatal(err)
			}
			ring = ring[1:]
		}
		ring = append(ring, writeAsync(cl, a, src))
	}
	for _, op := range ring {
		if err := op.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	if got := cl.node.WriteStats().Frames - c0.Frames; got != ops {
		t.Fatalf("client wrote %d frames for %d requests", got, ops)
	}
	// Every response is in, but the server may not have counted them all.
	waitFrames(t, srv, s0.Frames+ops)
	for _, side := range []struct {
		name string
		ws   WriteStats
		base WriteStats
	}{
		{"client", cl.node.WriteStats(), c0},
		{"server", srv.WriteStats(), s0},
	} {
		ws := side.ws
		if ws.DroppedFrames != 0 {
			t.Fatalf("%s dropped %d frames on a healthy connection", side.name, ws.DroppedFrames)
		}
		if ws.Batches != ws.Frames || ws.CoalescedFrames != ws.Frames {
			t.Fatalf("%s computed fields: batches=%d coalesced=%d, want both = frames %d",
				side.name, ws.Batches, ws.CoalescedFrames, ws.Frames)
		}
		if b := ws.Bytes - side.base.Bytes; b < ops*frameHeaderSize {
			t.Fatalf("%s wrote %d bytes for %d frames", side.name, b, ops)
		}
	}
	if b := cl.node.WriteStats().Bytes - c0.Bytes; b < ops*uint64(len(src)) {
		t.Fatalf("client wrote %d bytes for %d requests of %d bytes", b, ops, len(src))
	}
}

// waitFrames waits until srv has counted want written frames, and fails
// if it counts another way.
func waitFrames(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.WriteStats().Frames != want {
		if time.Now().After(deadline) {
			t.Fatalf("server wrote %d frames, want %d", srv.WriteStats().Frames, want)
		}
		time.Sleep(time.Millisecond)
	}
}
