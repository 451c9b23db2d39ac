package pool

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/live"
)

// startShard runs one live DM server announcing shard id on loopback.
func startShard(t testing.TB, id uint32, cfg live.ServerConfig) (*live.Server, string) {
	t.Helper()
	cfg.HasShard = true
	cfg.ShardID = id
	srv := live.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("shard %d serve: %v", id, err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("shard %d close: %v", id, err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

// startCluster runs k shards and a registered pool client over them.
func startCluster(t *testing.T, k int, scfg live.ServerConfig, pcfg Config) ([]*live.Server, *Client) {
	t.Helper()
	srvs := make([]*live.Server, k)
	for i := 0; i < k; i++ {
		srv, addr := startShard(t, uint32(i), scfg)
		srvs[i] = srv
		pcfg.Shards = append(pcfg.Shards, addr)
	}
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	return srvs, p
}

func smallShard() live.ServerConfig { return live.ServerConfig{NumPages: 512, PageSize: 4096} }

// checkAllInvariants runs every shard's D6/D8 conservation check.
func checkAllInvariants(t *testing.T, srvs []*live.Server) {
	t.Helper()
	for i, srv := range srvs {
		if err := srv.CheckInvariants(); err != nil {
			t.Errorf("shard %d invariants: %v", i, err)
		}
	}
}

// TestPoolStageReadAcrossShards stages enough objects to land on every
// shard, reads each back through its located ref, and checks the pages
// actually spread across the cluster.
func TestPoolStageReadAcrossShards(t *testing.T) {
	const k, objects = 3, 48
	srvs, p := startCluster(t, k, smallShard(), Config{})
	refs := make([]dm.Ref, objects)
	bodies := make([][]byte, objects)
	for i := range refs {
		bodies[i] = bytes.Repeat([]byte{byte(i + 1)}, 8192)
		ref, err := p.StageRef(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	perShard := make([]int, k)
	for i, ref := range refs {
		if int(ref.Server) >= k {
			t.Fatalf("ref %d located on unknown shard %d", i, ref.Server)
		}
		perShard[ref.Server]++
		got := make([]byte, len(bodies[i]))
		if err := p.ReadRef(ref, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bodies[i]) {
			t.Fatalf("ref %d read back wrong bytes", i)
		}
	}
	for id, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d received no objects (distribution %v)", id, perShard)
		}
		if lr := srvs[id].LiveRefs(); lr != n {
			t.Errorf("shard %d holds %d live refs, want %d", id, lr, n)
		}
	}
	for _, ref := range refs {
		if err := p.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	checkAllInvariants(t, srvs)
}

// TestPoolKeyedPlacement pins stageRefKeyed determinism: the same key
// lands on the same shard every time, and agrees with the ring.
func TestPoolKeyedPlacement(t *testing.T) {
	_, p := startCluster(t, 3, smallShard(), Config{})
	for key := uint64(0); key < 32; key++ {
		want, _ := p.ring.Lookup(key)
		for round := 0; round < 2; round++ {
			ref, err := p.stageRefKeyed(key, []byte("keyed"))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Server != want {
				t.Fatalf("key %d round %d landed on shard %d, ring says %d", key, round, ref.Server, want)
			}
			if err := p.FreeRef(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPoolMapRefTagsShard pins MapRef's address tag: a second pool
// client sharing the shard map maps the first one's located refs, the
// address's top byte names the shard whose session holds the mapping,
// and the rest is that shard's own address, which its live client reads
// and frees.
func TestPoolMapRefTagsShard(t *testing.T) {
	srvs, p := startCluster(t, 3, smallShard(), Config{})
	p2, err := Dial(Config{Shards: p.cfg.Shards})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.Register(); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xab}, 16384)
	mapped := map[uint32]bool{}
	for key := uint64(0); len(mapped) < 3; key++ {
		ref, err := p.stageRefKeyed(key, body)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped[ref.Server] {
			mapped[ref.Server] = true
			addr, err := p2.MapRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			if id := uint32(uint64(addr) >> shardShift); id != ref.Server {
				t.Fatalf("ref on shard %d mapped to an address tagged %d", ref.Server, id)
			}
			s, err := p2.byID(ref.Server)
			if err != nil {
				t.Fatal(err)
			}
			raw := dm.RemoteAddr(uint64(addr) & (1<<shardShift - 1))
			got := make([]byte, len(body))
			if err := s.cl.Read(raw, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, body) {
				t.Fatal("cross-client mapped read wrong bytes")
			}
			if err := s.cl.Free(raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	checkAllInvariants(t, srvs)
}

// TestPoolShardIDVerification pins the registration safety check: a pool
// whose server list disagrees with the servers' announced shard IDs must
// refuse to register.
func TestPoolShardIDVerification(t *testing.T) {
	_, addr0 := startShard(t, 0, smallShard())
	_, addr1 := startShard(t, 1, smallShard())
	p, err := Dial(Config{Shards: []string{addr1, addr0}}) // swapped
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	err = p.Register()
	if err == nil || !strings.Contains(err.Error(), "announces shard") {
		t.Fatalf("shuffled shard list registered: %v", err)
	}
}

// TestPoolStatsAggregation checks the Stats satellite end to end: ops
// through the pool show up in the aggregate counters.
func TestPoolStatsAggregation(t *testing.T) {
	_, p := startCluster(t, 2, smallShard(), Config{})
	before := p.Stats()
	for i := 0; i < 10; i++ {
		ref, err := p.StageRef([]byte("stats"))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.FreeRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	after := p.Stats()
	if got := after.Calls - before.Calls; got < 20 {
		t.Fatalf("aggregate Calls grew by %d, want >= 20", got)
	}
	per := p.ShardStats()
	if len(per) != 2 {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	var sum int64
	for _, st := range per {
		sum += st.Calls
	}
	if sum != after.Calls {
		t.Fatalf("per-shard calls sum %d != aggregate %d", sum, after.Calls)
	}
}

// TestPoolBadShardRef pins consume-side validation: a ref naming a shard
// outside the cluster fails cleanly with dm.ErrBadAddress.
func TestPoolBadShardRef(t *testing.T) {
	_, p := startCluster(t, 2, smallShard(), Config{})
	bad := dm.Ref{Server: 9, Key: 1, Size: 8}
	if err := p.ReadRef(bad, 0, make([]byte, 8)); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("out-of-cluster ref: %v", err)
	}
	if err := p.FreeRef(bad); !errors.Is(err, dm.ErrBadAddress) {
		t.Fatalf("out-of-cluster free: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
