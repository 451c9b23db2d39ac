// Liverpc demonstrates the application-level DmRPC framework on real
// sockets: two named services — a resizer that forwards and a terminal
// aggregator — plus a DM server, all on loopback TCP. Every endpoint
// reaches the server through its own one-shard pool session. The client
// stages a large payload once; only a ~21-byte ref crosses the two
// service hops, and the terminal service reads the bytes straight from
// the DM server. Small payloads skip staging and ride inline
// automatically.
//
//	go run ./examples/liverpc
package main

import (
	"fmt"
	"net"

	"repro/internal/apps"
	"repro/internal/live"
	"repro/internal/liverpc"
	"repro/internal/pool"
)

func main() {
	// DM server on a loopback port (cmd/dmserverd runs this standalone).
	srv := live.NewServer(live.ServerConfig{NumPages: 4096, PageSize: 4096})
	dmLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.Serve(dmLn)
	defer srv.Close()
	dmAddr := dmLn.Addr().String()

	// Terminal service: materializes the payload and aggregates it.
	agg := newService("aggregate", dmAddr)
	agg.Handle("sum", func(ctx *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		// By-ref payloads are read from the DM server here; an inline one
		// aliases the request and is used only before the handler returns.
		buf, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		return []liverpc.Payload{liverpc.U64(apps.Aggregate(buf))}, nil
	})
	aggAddr := serve(agg)

	// Front service: a pure data mover — with pass-by-reference it never
	// touches the payload bytes at all. It returns the nested call's
	// results as its own, which the service encodes before it recycles
	// their call-scoped storage.
	front := newService("front", dmAddr)
	front.Handle("sum", func(ctx *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		return ctx.Call(aggAddr, "sum", args...)
	})
	frontAddr := serve(front)

	// Client: stage once, call through the chain.
	cdm := session(dmAddr)
	defer cdm.Close()
	caller := liverpc.NewCaller(cdm, liverpc.Config{})
	defer caller.Close()

	payload := make([]byte, 256<<10)
	apps.FillPayload(payload, 1)
	arg, err := caller.Stage(payload) // 256 KiB > threshold: staged by ref
	check(err)
	fmt.Printf("staged %d bytes, argument travels as %v\n", len(payload), arg)

	res, err := caller.Call(frontAddr, "sum", arg)
	check(err)
	sum, err := res[0].AsU64()
	check(err)
	fmt.Printf("chain sum = %d (want %d)\n", sum, apps.Aggregate(payload))
	check(caller.Release(arg))

	// A small argument takes the same code path but stays inline.
	res, err = caller.Call(frontAddr, "sum", liverpc.Inline([]byte{1, 2, 3}))
	check(err)
	sum, _ = res[0].AsU64()
	fmt.Printf("inline sum = %d (want 6)\n", sum)
}

// session registers a DM session on the server: a one-shard pool.
func session(dmAddr string) *pool.Client {
	p, err := pool.Dial(pool.Config{Shards: []string{dmAddr}})
	check(err)
	check(p.Register())
	return p
}

func newService(name, dmAddr string) *liverpc.Service {
	return liverpc.NewService(name, session(dmAddr), liverpc.Config{})
}

func serve(s *liverpc.Service) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go s.Serve(ln)
	return ln.Addr().String()
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
