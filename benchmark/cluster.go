package main

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/live"
	"repro/internal/pool"
)

// cluster is an in-process K-shard DM pool on loopback ports. The
// server handles stay reachable so invariants, free pages and write
// counters can be read from outside after the load stops.
type cluster struct {
	addrs []string
	srvs  []*live.Server

	mu       sync.Mutex
	sessions []*pool.Client
}

// launch starts k shards the way dmserverd -shard-id would: the default
// server configuration (15 s lease, so sessions heartbeat and cache
// epochs advance), sized to pages, each announcing its shard ID.
func launch(k, pages int) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < k; i++ {
		cfg := live.DefaultServerConfig()
		cfg.NumPages = pages
		cfg.HasShard = true
		cfg.ShardID = uint32(i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("shard %d listen: %w", i, err)
		}
		srv := live.NewServer(cfg)
		go srv.Serve(ln) // returns nil once srv.Close runs
		c.srvs = append(c.srvs, srv)
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	return c, nil
}

// session dials and registers one pool session over the first k shards
// (0 = all) and tracks it for counter sums and teardown.
func (c *cluster) session(cfg pool.Config, k int) (*pool.Client, error) {
	if k == 0 {
		k = len(c.addrs)
	}
	cfg.Shards = c.addrs[:k]
	p, err := pool.Dial(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Register(); err != nil {
		p.Close()
		return nil, err
	}
	c.mu.Lock()
	c.sessions = append(c.sessions, p)
	c.mu.Unlock()
	return p, nil
}

// counters sums what the layers expose publicly across every session
// and shard; two snapshots subtract into a window's deltas.
type counters struct {
	client live.Stats
	writes live.WriteStats

	failover        int64
	underReplicated int64
}

func (c *cluster) counters() counters {
	var t counters
	c.mu.Lock()
	sessions := append([]*pool.Client(nil), c.sessions...)
	c.mu.Unlock()
	for _, p := range sessions {
		st := p.Stats()
		t.client.Calls += st.Calls
		t.client.Retries += st.Retries
		t.client.Timeouts += st.Timeouts
		t.client.Failures += st.Failures
		t.client.CacheHits += st.CacheHits
		t.client.CacheMisses += st.CacheMisses
		t.client.CacheEvictions += st.CacheEvictions
		t.client.CacheInvalidations += st.CacheInvalidations
		t.failover += p.FailoverReads()
		if ur := int64(p.UnderReplicated()); ur > t.underReplicated {
			t.underReplicated = ur
		}
	}
	for _, s := range c.srvs {
		ws := s.WriteStats()
		t.writes.Frames += ws.Frames
		t.writes.Batches += ws.Batches
		t.writes.CoalescedFrames += ws.CoalescedFrames
	}
	return t
}

// touchPages stages and frees enough on every shard to walk its whole
// free list once. The server hands out frames first-in first-out, so
// without this the first rungs to stage would be the ones paying the
// first-touch page fault of every frame in the pool.
func (c *cluster) touchPages() error {
	chunk := make([]byte, 256<<10)
	for i, addr := range c.addrs {
		cl, err := live.Dial(addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		if err := cl.Register(); err != nil {
			return err
		}
		for n := c.srvs[i].FreePages() * 4096 / len(chunk); n > 0; n-- {
			ref, err := cl.StageRef(chunk)
			if err == nil {
				err = cl.FreeRef(ref)
			}
			if err != nil {
				return fmt.Errorf("touch shard %d: %w", i, err)
			}
		}
	}
	return nil
}

func (c *cluster) freePages() int {
	n := 0
	for _, s := range c.srvs {
		n += s.FreePages()
	}
	return n
}

func (c *cluster) closeSessions() {
	c.mu.Lock()
	sessions := c.sessions
	c.sessions = nil
	c.mu.Unlock()
	for _, p := range sessions {
		p.Close()
	}
}

// checkInvariants needs a quiescent cluster: call it after the load has
// stopped and the sessions are closed.
func (c *cluster) checkInvariants() error {
	for i, s := range c.srvs {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func (c *cluster) close() {
	c.closeSessions()
	for _, s := range c.srvs {
		s.Close()
	}
	c.srvs = nil
}
