package liverpc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
)

// TestCallerAsyncPipelines proves service-level pipelining: N futures
// issued back-to-back all reach the handler before any Wait.
func TestCallerAsyncPipelines(t *testing.T) {
	const n = 4
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	s := NewService("blocky", nil, Config{})
	s.Handle("hold", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		arrived <- struct{}{}
		<-release
		buf, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		return []Payload{Inline(append([]byte("ok:"), buf...))}, nil
	})
	addr := serveService(t, s)

	c := NewCaller(nil, Config{})
	defer c.Close()
	pcs := make([]*PendingCall, n)
	for i := range pcs {
		pcs[i] = c.CallAsyncOpts(addr, "hold", CallOpts{Timeout: 10 * time.Second},
			Inline([]byte{byte('0' + i)}))
	}
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d pipelined service calls arrived before any Wait", i, n)
		}
	}
	close(release)
	for i, pc := range pcs {
		res, err := pc.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want := fmt.Sprintf("ok:%c", '0'+i)
		if len(res) != 1 || string(res[0].Inline()) != want {
			t.Fatalf("call %d returned %v, want %q", i, res, want)
		}
	}
}

// TestCtxCallAsyncFanOut has a handler fan one request out to two
// downstream services concurrently via Ctx.CallAsync and combine the
// futures — the scatter/gather shape the async nested call exists for.
// The propagated deadline still applies: an exhausted budget yields a
// fast-failing future.
func TestCtxCallAsyncFanOut(t *testing.T) {
	leaf := func(tag string) string {
		s := NewService("leaf-"+tag, nil, Config{})
		s.Handle("leaf", func(ctx *Ctx, args []Payload) ([]Payload, error) {
			return []Payload{Inline([]byte(tag))}, nil
		})
		return serveService(t, s)
	}
	a, b := leaf("A"), leaf("B")

	root := NewService("root", nil, Config{})
	root.Handle("gather", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		pa := ctx.CallAsync(a, "leaf")
		pb := ctx.CallAsync(b, "leaf")
		ra, err := pa.Wait()
		if err != nil {
			return nil, err
		}
		rb, err := pb.Wait()
		if err != nil {
			return nil, err
		}
		return []Payload{Inline(append(ra[0].Inline(), rb[0].Inline()...))}, nil
	})
	rootAddr := serveService(t, root)

	c := NewCaller(nil, Config{})
	defer c.Close()
	res, err := c.Call(rootAddr, "gather")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Inline()) != "AB" {
		t.Fatalf("gather returned %v, want AB", res)
	}

	// Exhausted propagated budget: the future fails without a wire trip.
	dead := &Ctx{Svc: root, Deadline: time.Now().Add(-time.Second)}
	if _, err := dead.CallAsync(a, "leaf").Wait(); err == nil {
		t.Fatal("CallAsync with an exhausted budget returned a working future")
	}
}

// TestChainDoAsyncPipelined runs the chain app with a ring of in-flight
// requests and checks every aggregate, in by-ref mode so each request
// also exercises the stage-then-call overlap.
func TestChainDoAsyncPipelined(t *testing.T) {
	_, dmAddr := startDM(t, smallDM())
	d := deployChain(t, 3, dmAddr, Config{InlineThreshold: 1024})

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i)
	}
	want := apps.Aggregate(payload)

	const total, depth = 12, 4
	ring := make([]*ChainPending, 0, depth)
	check := func(cp *ChainPending) {
		t.Helper()
		got, err := cp.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pipelined aggregate = %d, want %d", got, want)
		}
	}
	for i := 0; i < total; i++ {
		if len(ring) == depth {
			check(ring[0])
			ring = ring[1:]
		}
		ring = append(ring, d.Client.DoAsync(payload))
	}
	for _, cp := range ring {
		check(cp)
	}

	// The synchronous path still works on the same deployment.
	got, err := d.Client.Do(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sync aggregate = %d, want %d", got, want)
	}
}
