package liverpc

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
)

// BenchmarkLiveRPCChainOccupancy verifies that DoAsync-style pipelining
// actually fills the chain, independent of whether the host has the
// cores to profit from it: a hand-built chain whose handlers carry
// in-flight gauges, driven by a ring of CallAsync futures over one
// pre-staged shared ref (the chain only reads it, so one ref serves
// every request). The maxhopN extra metrics report the peak number of
// simultaneously executing handlers per hop — at depth=16 every hop
// must reach 16, proving the futures deliver end-to-end concurrency.
// ns/op gains from that concurrency are bounded by spare cores: on a
// single-core host the chain is CPU-bound and pipelining only reclaims
// scheduler dead time between stages (see EXPERIMENTS.md).
func BenchmarkLiveRPCChainOccupancy(b *testing.B) {
	const hops = 3
	const size = 4 << 10
	dmAddr := benchDM(b)
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var lns []net.Listener
			var addrs []string
			for i := 0; i < hops; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				lns = append(lns, ln)
				addrs = append(addrs, ln.Addr().String())
				b.Cleanup(func() { ln.Close() })
			}
			cfg := Config{InlineThreshold: 1024}
			inflight := make([]atomic.Int64, hops)
			maxIn := make([]atomic.Int64, hops)
			for i := 0; i < hops; i++ {
				dmc := dialDM(b, dmAddr)
				next := ""
				if i < hops-1 {
					next = addrs[i+1]
				}
				s := NewService(fmt.Sprintf("probe%d", i), dmc, cfg)
				s.Handle(ChainMethod, func(ctx *Ctx, args []Payload) ([]Payload, error) {
					cur := inflight[i].Add(1)
					for {
						old := maxIn[i].Load()
						if cur <= old || maxIn[i].CompareAndSwap(old, cur) {
							break
						}
					}
					defer inflight[i].Add(-1)
					if next != "" {
						return ctx.Call(next, ChainMethod, args[0])
					}
					buf, err := ctx.Fetch(args[0])
					if err != nil {
						return nil, err
					}
					return []Payload{U64(apps.Aggregate(buf))}, nil
				})
				go s.Serve(lns[i])
				b.Cleanup(func() { s.Close() })
			}
			caller := NewCaller(dialDM(b, dmAddr), cfg)
			b.Cleanup(func() { caller.Close() })
			payload := make([]byte, size)
			apps.FillPayload(payload, uint64(size))
			want := apps.Aggregate(payload)
			arg, err := caller.Stage(payload)
			if err != nil {
				b.Fatal(err)
			}
			check := func(pc *PendingCall) {
				res, err := pc.Wait()
				if err != nil {
					b.Fatal(err)
				}
				got, err := res[0].AsU64()
				if err != nil || got != want {
					b.Fatalf("sum = %d (%v), want %d", got, err, want)
				}
			}
			b.SetBytes(size)
			b.ResetTimer()
			ring := make([]*PendingCall, 0, depth)
			for i := 0; i < b.N; i++ {
				if len(ring) == depth {
					check(ring[0])
					ring = ring[1:]
				}
				ring = append(ring, caller.CallAsync(addrs[0], ChainMethod, arg))
			}
			for _, pc := range ring {
				check(pc)
			}
			b.StopTimer()
			caller.Release(arg)
			for i := 0; i < hops; i++ {
				b.ReportMetric(float64(maxIn[i].Load()), fmt.Sprintf("maxhop%d", i))
			}
		})
	}
}
