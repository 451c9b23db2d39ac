package live

import (
	"testing"
	"time"
)

// TestWriteStatsComputedFieldsQuiesce drives a pipelined async burst
// through the coalescing writer and checks the derived observability
// fields: the queue-depth gauges return to zero once the writer drains,
// the frame accounting identity holds (every frame is inline, direct, or
// coalesced), and the group-commit factor is the coalesced-frames-per-
// batch ratio dmserverd prints.
func TestWriteStatsComputedFieldsQuiesce(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	a, err := cl.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 512)
	const depth = 16
	ring := make([]*AsyncOp, 0, depth)
	for i := 0; i < 400; i++ {
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

	for _, side := range []struct {
		name string
		get  func() WriteStats
	}{
		{"client", cl.node.WriteStats},
		{"server", srv.WriteStats},
	} {
		// Every response is in; the flush loop may still be retiring its
		// last batch, so poll the gauges down to zero.
		deadline := time.Now().Add(5 * time.Second)
		ws := side.get()
		for ws.QueueFrames != 0 || ws.QueueBytes != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s writer queue did not quiesce: frames=%d bytes=%d",
					side.name, ws.QueueFrames, ws.QueueBytes)
			}
			time.Sleep(5 * time.Millisecond)
			ws = side.get()
		}
		if ws.Frames == 0 {
			t.Fatalf("%s writer saw no frames", side.name)
		}
		if ws.InlineFrames+ws.DirectFrames+ws.CoalescedFrames != ws.Frames {
			t.Fatalf("%s frame accounting broken: inline=%d direct=%d coalesced=%d total=%d",
				side.name, ws.InlineFrames, ws.DirectFrames, ws.CoalescedFrames, ws.Frames)
		}
		if ws.Batches > 0 {
			want := float64(ws.CoalescedFrames) / float64(ws.Batches)
			if ws.GroupCommitFactor != want {
				t.Fatalf("%s group-commit factor = %v, want %v", side.name, ws.GroupCommitFactor, want)
			}
		} else if ws.GroupCommitFactor != 0 {
			t.Fatalf("%s group-commit factor = %v with no batches", side.name, ws.GroupCommitFactor)
		}
	}

	// The pipelined burst must actually have exercised group commit on at
	// least one side (the server's responses pile up behind the in-flight
	// flush); otherwise this test is vacuous.
	if cl.node.WriteStats().CoalescedFrames == 0 && srv.WriteStats().CoalescedFrames == 0 {
		t.Fatal("no coalesced frames anywhere: the burst never hit the batch path")
	}
}
