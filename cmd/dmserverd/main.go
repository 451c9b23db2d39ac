// Command dmserverd runs a live (real TCP) DmRPC-net disaggregated memory
// server: the paper's page manager and address translator over an
// in-process pinned page pool, speaking the internal/dmwire protocol.
//
// Usage:
//
//	dmserverd -listen :7640 -pages 65536 -pagesize 4096
//
// A client opens one session on this server with internal/live.Dial(addr)
// and uses the Table II API (ralloc/rfree/create_ref/map_ref/rread/rwrite
// plus stage/read-by-ref); several dmserverd processes become one
// cluster — sharded, replicated, cached — behind internal/pool.Dial.
// See examples/live for an end-to-end flow.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/live"
)

func main() {
	listen := flag.String("listen", ":7640", "TCP listen address; a loopback IP (127.0.0.1:7640) also serves same-host clients that dial that literal address over a Unix-socket companion (Linux)")
	pages := flag.Int("pages", 1<<16, "pool size in pages")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "session lease TTL: a registered client session that sends no request (data call or heartbeat) for this long is reaped (0 disables leasing)")
	drain := flag.Duration("drain", time.Second, "graceful drain window on shutdown before connections are cut")
	maxFrame := flag.Uint("max-frame", live.DefaultMaxFrameSize, "maximum accepted frame payload in bytes")
	coalesceLimit := flag.Int("coalesce-limit", 0, "largest response coalesced into batched writes, bytes (0 = default, negative disables)")
	coalesceBatch := flag.Int("coalesce-batch", 0, "max bytes per group-commit flush (0 = default)")
	coalesceSpin := flag.Duration("coalesce-spin", 0, "adaptive spin-then-flush window cap (0 = default, negative disables)")
	statsEvery := flag.Duration("stats", 0, "print free-page/live-ref/writer counters at this interval (0 disables)")
	shardID := flag.Int("shard-id", -1, "cluster-wide shard ID announced to pool clients (-1 = single-server, no shard)")
	flag.Parse()

	cfg := live.ServerConfig{
		NumPages:           *pages,
		PageSize:           *pageSize,
		LeaseTTL:           *leaseTTL,
		DrainTimeout:       *drain,
		MaxFrameSize:       uint32(*maxFrame),
		CoalesceLimit:      *coalesceLimit,
		CoalesceBatchBytes: *coalesceBatch,
		CoalesceSpin:       *coalesceSpin,
	}
	if *shardID >= 0 {
		cfg.HasShard = true
		cfg.ShardID = uint32(*shardID)
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	srv := live.NewServer(cfg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	shardNote := ""
	if cfg.HasShard {
		shardNote = fmt.Sprintf(" as shard %d", cfg.ShardID)
	}
	fmt.Printf("dmserverd: serving %d pages x %dB (%d MiB) on %s%s\n",
		*pages, *pageSize, *pages**pageSize>>20, ln.Addr(), shardNote)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				ws := srv.WriteStats()
				// leased_bufs is the in-process zero-copy lease gauge
				// (live.LeasedBufs); epoch is the §D15 cache-invalidation
				// epoch piggybacked on heartbeats. leased_bufs should
				// return to zero when in-process clients go idle.
				fmt.Printf("dmserverd: free_pages=%d live_refs=%d stage_puts=%d leased_bufs=%d epoch=%d tx_frames=%d tx_batches=%d tx_inline=%d group_commit=%.1f spin_batches=%d queue_frames=%d queue_bytes=%d tx_bytes=%d\n",
					srv.FreePages(), srv.LiveRefs(), srv.StagePuts(), live.LeasedBufs(), srv.Epoch(),
					ws.Frames, ws.Batches, ws.InlineFrames,
					ws.GroupCommitFactor, ws.SpinBatches, ws.QueueFrames, ws.QueueBytes, ws.Bytes)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("dmserverd: draining and shutting down")
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}
