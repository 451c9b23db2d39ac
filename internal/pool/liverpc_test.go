package pool

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/dm"
	"repro/internal/live"
	"repro/internal/liverpc"
)

// serveService starts s on a loopback listener and returns its address.
func serveService(t *testing.T, s *liverpc.Service) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// dialPool registers a fresh pool client over addrs.
func dialPool(t *testing.T, addrs []string) *Client {
	t.Helper()
	p, err := Dial(Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLiverpcOverPool wires the RPC framework onto the sharded cluster:
// a caller stages a large argument through its pool (producing a
// located payload on the wire), a service with its OWN pool session
// fetches it by shard ID, adopts it, and serves it back later — the
// full Ctx.Fetch/Ctx.Adopt path over located refs. The adopt moves the
// ref, so the producer's later release finds its key dead.
func TestLiverpcOverPool(t *testing.T) {
	const k = 3
	srvs := make([]*live.Server, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		srvs[i], addrs[i] = startShard(t, uint32(i), smallShard())
	}
	svcPool := dialPool(t, addrs)

	big := bytes.Repeat([]byte{0xcd}, 64<<10)
	var adopted liverpc.Payload
	svc := liverpc.NewService("store", svcPool, liverpc.Config{})
	svc.Handle("put", func(ctx *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		if len(args) != 1 || !args[0].IsRef() {
			return nil, errors.New("want one ref arg")
		}
		got, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, big) {
			return nil, errors.New("fetched wrong bytes")
		}
		adopted, err = ctx.Adopt(args[0])
		if err != nil {
			return nil, err
		}
		return []liverpc.Payload{liverpc.U64(uint64(len(got)))}, nil
	})
	svc.Handle("get", func(ctx *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		return []liverpc.Payload{adopted}, nil
	})
	addr := serveService(t, svc)

	callerPool := dialPool(t, addrs)
	caller := liverpc.NewCaller(callerPool, liverpc.Config{})
	defer caller.Close()

	arg, err := caller.Stage(big)
	if err != nil {
		t.Fatal(err)
	}
	if !arg.IsRef() {
		t.Fatal("pool-staged payload did not pass by ref")
	}
	res, err := caller.Call(addr, "put", arg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res[0].AsU64(); err != nil || n != uint64(len(big)) {
		t.Fatalf("put returned (%d, %v)", n, err)
	}
	// Storage took the ref over: the producer's release answers
	// ErrBadRef, and the adopted payload must survive it.
	if err := caller.Release(arg); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("producer release after adopt: %v, want dm.ErrBadRef", err)
	}
	res, err = caller.Call(addr, "get")
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].IsRef() {
		t.Fatal("adopted payload came back inline")
	}
	got, err := caller.Fetch(res[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("adopted payload has wrong bytes")
	}
	checkAllInvariants(t, srvs)
}

// TestChainOverPool deploys the paper's nested-call chain with every
// hop holding its own pool session, via the DM-factory deployment.
func TestChainOverPool(t *testing.T) {
	const k = 2
	addrs := make([]string, k)
	srvs := make([]*live.Server, k)
	for i := 0; i < k; i++ {
		srvs[i], addrs[i] = startShard(t, uint32(i), smallShard())
	}
	var pools []*Client
	d, err := liverpc.DeployChainWith(3, func() (liverpc.DM, error) {
		p, err := Dial(Config{Shards: addrs})
		if err != nil {
			return nil, err
		}
		if err := p.Register(); err != nil {
			p.Close()
			return nil, err
		}
		pools = append(pools, p)
		return p, nil
	}, liverpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload := bytes.Repeat([]byte{3}, 32<<10)
	var want uint64
	for _, b := range payload {
		want += uint64(b)
	}
	for i := 0; i < 4; i++ {
		got, err := d.Client.Do(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("chain aggregate = %d, want %d", got, want)
		}
	}
	checkAllInvariants(t, srvs)
}
