package liverpc

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/pool"
)

// Reuse safety of the call-scoped storage (DESIGN.md §D9): a service
// decodes every call into pooled state and encodes every response into a
// pooled buffer, and a top-level caller's results are its own memory.
// None of that reuse may leak one call's bytes into another's.

// TestConcurrentCallsKeepOwnResults: eight goroutines share one Caller
// and one Service, each sending its own inline arguments to a relay that
// forwards them through a nested call and returns the nested results
// next to its own args. Every goroutine re-checks all of its earlier
// results after each later call, so a result that aliased recycled
// memory shows as another call's bytes.
func TestConcurrentCallsKeepOwnResults(t *testing.T) {
	// The relay calls its own service, so its address is fixed before
	// any handler can run: the socket that carries a call is no
	// happens-before edge the race detector sees.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s := NewService("relay", nil, Config{})
	s.Handle("echo", func(ctx *Ctx, args []Payload) ([]Payload, error) { return args, nil })
	s.Handle("relay", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		res, err := ctx.Call(addr, "echo", args...)
		if err != nil {
			return nil, err
		}
		return append(res, args...), nil
	})
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	c := NewCaller(nil, Config{})
	defer c.Close()

	const workers, calls = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sent, got [][]Payload
			for i := 0; i < calls; i++ {
				args := make([]Payload, 1+i%3)
				for j := range args {
					// Sizes straddle the frame pool's classes.
					b := bytes.Repeat([]byte(fmt.Sprintf("g%d.i%d.a%d;", g, i, j)), 1+(i*7+j*13)%90)
					args[j] = Inline(b)
				}
				res, err := c.Call(addr, "relay", args...)
				if err != nil {
					errs <- err
					return
				}
				sent, got = append(sent, args), append(got, res)
				for k := range got {
					if want := slices.Concat(sent[k], sent[k]); !samePayloads(got[k], want) {
						errs <- fmt.Errorf("worker %d: call %d's results changed after call %d", g, k, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestKeptRefPayloadOutlivesCalls: a handler keeps a replicated ref
// payload past its return, as storage keeps composed media. A thousand
// more calls reuse the service's call state, and the kept payload still
// names the same ref and replica list and reads back the staged bytes.
func TestKeptRefPayloadOutlivesCalls(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		cfg := smallDM()
		cfg.HasShard, cfg.ShardID = true, uint32(i)
		_, addr := startDM(t, cfg)
		addrs = append(addrs, addr)
	}
	pcfg := pool.Config{Shards: addrs, ReplicaFactor: 2}
	s := NewService("keeper", dialPool(t, pcfg), Config{})
	var kept Payload
	s.Handle("keep", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		kept = args[0]
		return nil, nil
	})
	s.Handle("touch", func(ctx *Ctx, args []Payload) ([]Payload, error) { return args, nil })
	addr := serveService(t, s)
	c := NewCaller(dialPool(t, pcfg), Config{InlineThreshold: 256})
	defer c.Close()

	data := bytes.Repeat([]byte("kept payload "), 400)
	target, err := c.Stage(data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(target)
	other, err := c.Stage(bytes.Repeat([]byte{9}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(other)
	if !target.IsRef() || len(target.Replicas()) != 2 {
		t.Fatalf("target payload %v, want a ref with two replicas", target)
	}
	if _, err := c.Call(addr, "keep", target); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(addr, "touch", other, Inline([]byte{byte(i)}), other); err != nil {
			t.Fatal(err)
		}
	}
	if kept.Ref() != target.Ref() || !slices.Equal(kept.Replicas(), target.Replicas()) {
		t.Fatalf("kept payload %v, want %v", kept, target)
	}
	got, err := c.Fetch(kept)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("kept ref payload reads back different bytes")
	}
}

// samePayloads compares two payload lists by content.
func samePayloads(a, b []Payload) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsRef() != b[i].IsRef() || a[i].Ref() != b[i].Ref() ||
			!bytes.Equal(a[i].Inline(), b[i].Inline()) || !slices.Equal(a[i].Replicas(), b[i].Replicas()) {
			return false
		}
	}
	return true
}
