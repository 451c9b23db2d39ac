package liverpc

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/live"
)

// benchSizes is the payload sweep for the Fig 5 live reproduction:
// spanning well below and well above the inline threshold so the
// by-value / by-ref crossover falls inside the range. On loopback TCP
// the by-value baseline pays one full payload copy per hop while by-ref
// pays a fixed two bulk transfers (stage + terminal read) regardless of
// chain length, so the crossover needs enough hops and bytes to show;
// a 5-hop chain puts it around 64–256 KiB on typical hosts.
var benchSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

const benchHops = 5

func benchDM(b *testing.B) string {
	b.Helper()
	srv := live.NewServer(live.ServerConfig{NumPages: 1 << 14, PageSize: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func benchChainConfig(mode string) Config {
	if mode == "value" {
		return Config{ForceInline: true}
	}
	return Config{InlineThreshold: 1024}
}

func benchChain(b *testing.B, dmAddr, mode string) *ChainDeployment {
	b.Helper()
	return deployChain(b, benchHops, dmAddr, benchChainConfig(mode))
}

// BenchmarkLiveRPCChain sweeps payload size across the 3-hop chain app in
// both call modes over real loopback TCP: "value" ships the payload
// through every hop (the eRPC baseline), "ref" stages it once and ships a
// ~21-byte descriptor (the paper's pass-by-reference path, Fig 5). The
// same application code runs in both modes; only Config differs.
func BenchmarkLiveRPCChain(b *testing.B) {
	dmAddr := benchDM(b)
	for _, mode := range []string{"value", "ref"} {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("mode=%s/size=%d", mode, size), func(b *testing.B) {
				d := benchChain(b, dmAddr, mode)
				payload := make([]byte, size)
				apps.FillPayload(payload, uint64(size))
				want := apps.Aggregate(payload)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := d.Client.Do(payload)
					if err != nil {
						b.Fatal(err)
					}
					if got != want {
						b.Fatalf("sum = %d, want %d", got, want)
					}
				}
			})
		}
	}
}

// BenchmarkLiveRPCChainCrossover probes both modes across the size sweep
// and reports the smallest payload size at which pass-by-reference beats
// pass-by-value on this host as "crossover-bytes" (0 when by-value wins
// everywhere in the sweep). The timed loop itself runs the largest
// payload by ref, so ns/op tracks the headline large-payload case.
func BenchmarkLiveRPCChainCrossover(b *testing.B) {
	dmAddr := benchDM(b)
	probe := func(mode string, size int) time.Duration {
		d := benchChain(b, dmAddr, mode)
		payload := make([]byte, size)
		apps.FillPayload(payload, uint64(size))
		const iters = 20
		// Warm the connections before timing.
		if _, err := d.Client.Do(payload); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := d.Client.Do(payload); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start) / iters
	}
	crossover := 0
	for _, size := range benchSizes {
		if probe("ref", size) < probe("value", size) {
			crossover = size
			break
		}
	}

	d := benchChain(b, dmAddr, "ref")
	size := benchSizes[len(benchSizes)-1]
	payload := make([]byte, size)
	apps.FillPayload(payload, uint64(size))
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Client.Do(payload); err != nil {
			b.Fatal(err)
		}
	}
	// After the timed loop: ResetTimer clears extra metrics, so the
	// crossover must be attached here to survive into the result line.
	b.ReportMetric(float64(crossover), "crossover-bytes")
}
