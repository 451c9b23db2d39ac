package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// benchSetup starts a loopback server and registered client for real-time
// benchmarking.
func benchSetup(b *testing.B) (*Server, *Client) {
	b.Helper()
	srv := NewServer(ServerConfig{NumPages: 1 << 15, PageSize: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.Register(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl
}

// BenchmarkLiveStageFreeRef measures the fused stage+free cycle over real
// loopback TCP at several payload sizes.
func BenchmarkLiveStageFreeRef(b *testing.B) {
	for _, size := range []int{4096, 32768, 262144} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			_, cl := benchSetup(b)
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, err := cl.StageRef(payload)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.FreeRef(ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveReadRef measures read-through-ref latency for a resident
// 32 KiB object.
func BenchmarkLiveReadRef(b *testing.B) {
	_, cl := benchSetup(b)
	ref, err := cl.StageRef(make([]byte, 32768))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 32768)
	b.SetBytes(32768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.ReadRef(ref, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServer starts just a loopback server (clients dialed separately).
func benchServer(b *testing.B, cfg ServerConfig) (*Server, string) {
	b.Helper()
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// BenchmarkLiveParallelStageReadRef is the aggregate-throughput benchmark
// for the striped hot path: N clients, each on its own TCP connection,
// concurrently run a 32 KiB StageRef+ReadRef+FreeRef cycle. Aggregate
// MB/s across clients is the figure of merit; it is what the global-mutex
// design serializes and the striped design must scale.
func BenchmarkLiveParallelStageReadRef(b *testing.B) {
	const size = 32768
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr := benchServer(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
			cls := make([]*Client, clients)
			for i := range cls {
				cl, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Register(); err != nil {
					b.Fatal(err)
				}
				cls[i] = cl
				b.Cleanup(func() { cl.Close() })
			}
			payload := make([]byte, size)
			// Each iteration stages 32 KiB and reads it back: 64 KiB moved.
			b.SetBytes(2 * size)
			var iters atomic.Int64
			iters.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for _, cl := range cls {
				wg.Add(1)
				go func(cl *Client) {
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
				}(cl)
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLiveParallelMixed exercises the full metadata + data-plane mix
// in parallel: per-client alloc/write/read/createref/free cycles on 8 KiB
// regions, stressing the VA allocators, translator, and refcounts from
// independent sessions at once.
func BenchmarkLiveParallelMixed(b *testing.B) {
	const size = 8192
	for _, clients := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr := benchServer(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
			cls := make([]*Client, clients)
			for i := range cls {
				cl, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Register(); err != nil {
					b.Fatal(err)
				}
				cls[i] = cl
				b.Cleanup(func() { cl.Close() })
			}
			payload := make([]byte, size)
			b.SetBytes(2 * size)
			var iters atomic.Int64
			iters.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for _, cl := range cls {
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					buf := make([]byte, size)
					for iters.Add(-1) >= 0 {
						a, err := cl.Alloc(size)
						if err != nil {
							errs <- err
							return
						}
						if err := cl.Write(a, payload); err != nil {
							errs <- err
							return
						}
						if err := cl.Read(a, buf); err != nil {
							errs <- err
							return
						}
						ref, err := cl.CreateRef(a, size)
						if err != nil {
							errs <- err
							return
						}
						if err := cl.Free(a); err != nil {
							errs <- err
							return
						}
						if err := cl.FreeRef(ref); err != nil {
							errs <- err
							return
						}
					}
				}(cl)
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLiveCoWWrite measures a map+write+unmap cycle against a shared
// region (each iteration triggers one page copy).
func BenchmarkLiveCoWWrite(b *testing.B) {
	_, cl := benchSetup(b)
	ref, err := cl.StageRef(make([]byte, 32768))
	if err != nil {
		b.Fatal(err)
	}
	small := []byte("dirty")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := cl.MapRef(ref)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Write(addr, small); err != nil {
			b.Fatal(err)
		}
		if err := cl.Free(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSmallOpThroughput is aggregate small-op throughput with
// N workers multiplexing 4 KiB StageRef+ReadRef+FreeRef cycles over ONE
// shared connection, whose writer they take turns at.
func BenchmarkLiveSmallOpThroughput(b *testing.B) {
	const size = 4096
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", workers), func(b *testing.B) {
			_, addr := benchServer(b, ServerConfig{NumPages: 1 << 15, PageSize: 4096})
			cl, err := DialConfig(DefaultClientConfig(), addr)
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Register(); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { cl.Close() })
			payload := make([]byte, size)
			// Each iteration stages 4 KiB and reads it back.
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
		})

	}
}
