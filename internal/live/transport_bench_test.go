package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dm"
)

// transportSetup starts a loopback server and a fresh registered client
// whose latency histogram covers only this benchmark (heartbeats off so
// renewal RPCs never pollute the percentiles).
func transportSetup(b *testing.B, scfg ServerConfig) (*Server, *Client) {
	b.Helper()
	srv, addr := benchServer(b, scfg)
	ccfg := DefaultClientConfig()
	ccfg.HeartbeatInterval = -1
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.Register(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return srv, cl
}

// reportLatency attaches the client's per-op latency percentiles to the
// benchmark result. The p50-ns/p99-ns/p999-ns units land in benchjson's
// Extra map; `make bench-transport` requires all three on every result.
func reportLatency(b *testing.B, cl *Client) {
	b.Helper()
	s := cl.Latency()
	b.ReportMetric(float64(s.P50), "p50-ns")
	b.ReportMetric(float64(s.P99), "p99-ns")
	b.ReportMetric(float64(s.P999), "p999-ns")
}

// BenchmarkTransportSmallOpClosedLoop is the closed-loop latency probe:
// `workers` goroutines share one connection, each running a synchronous
// 4 KiB StageRef+ReadRef+FreeRef cycle and never holding more than one
// request in flight. Tail percentiles here expose head-of-line blocking
// at the connection's writer and in the dispatch path rather than
// queueing delay.
func BenchmarkTransportSmallOpClosedLoop(b *testing.B) {
	const size = 4096
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", workers), func(b *testing.B) {
			_, cl := transportSetup(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
			payload := make([]byte, size)
			b.SetBytes(2 * size)
			var iters atomic.Int64
			iters.Store(int64(b.N))
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, size)
					for iters.Add(-1) >= 0 {
						ref, err := cl.StageRef(payload)
						if err != nil {
							errs <- err
							return
						}
						if err := cl.ReadRef(ref, 0, buf); err != nil {
							errs <- err
							return
						}
						if err := cl.FreeRef(ref); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			reportLatency(b, cl)
		})
	}
}

// BenchmarkTransportAsyncOpenLoop is the open-loop counterpart: a single
// caller keeps a deep ring of rwrite futures in flight, so submission
// outruns completion and ops queue at the server. The p99/p999 spread
// versus the closed-loop probe is that queueing delay.
func BenchmarkTransportAsyncOpenLoop(b *testing.B) {
	const size = 4096
	for _, depth := range []int{16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			_, cl := transportSetup(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
			a, err := cl.Alloc(size)
			if err != nil {
				b.Fatal(err)
			}
			src := make([]byte, size)
			b.SetBytes(size)
			b.ResetTimer()
			ring := make([]*AsyncOp, 0, depth)
			for i := 0; i < b.N; i++ {
				if len(ring) == depth {
					if err := ring[0].Wait(); err != nil {
						b.Fatal(err)
					}
					ring = ring[1:]
				}
				ring = append(ring, writeAsync(cl, a, src))
			}
			for _, op := range ring {
				if err := op.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportLatency(b, cl)
		})
	}
}

// benchDelivered keeps the copy-mode destination alive across iterations
// so escape analysis cannot quietly stack-allocate what a real caller
// retaining the payload would put on the heap.
var benchDelivered []byte

// BenchmarkTransportReadRefDelivery contrasts the two delivery modes for
// a resident 32 KiB object. "copy" models the legacy caller that retains
// the data: a fresh destination slice per op, filled by ReadRef. "lease"
// delivers the pooled response frame itself via ReadRefLease and returns
// it with Release, so the steady state allocates no payload-sized memory
// at all — B/op and allocs/op must come out lower than the copy row in
// the same run.
func BenchmarkTransportReadRefDelivery(b *testing.B) {
	const size = 32768
	stage := func(b *testing.B, cl *Client) dm.Ref {
		b.Helper()
		ref, err := cl.StageRef(make([]byte, size))
		if err != nil {
			b.Fatal(err)
		}
		return ref
	}
	b.Run("copy", func(b *testing.B) {
		_, cl := transportSetup(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
		ref := stage(b, cl)
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := make([]byte, size)
			if err := cl.ReadRef(ref, 0, dst); err != nil {
				b.Fatal(err)
			}
			if dst[0] != 0 {
				b.Fatal("corrupt read")
			}
			benchDelivered = dst
		}
		b.StopTimer()
		reportLatency(b, cl)
	})
	b.Run("lease", func(b *testing.B) {
		_, cl := transportSetup(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
		ref := stage(b, cl)
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err := cl.ReadRefLease(ref, 0, size)
			if err != nil {
				b.Fatal(err)
			}
			if buf.Bytes()[0] != 0 {
				b.Fatal("corrupt read")
			}
			buf.Release()
		}
		b.StopTimer()
		reportLatency(b, cl)
		if n := LeasedBufs(); n != 0 {
			b.Fatalf("leaked %d leased buffers", n)
		}
	})
}
