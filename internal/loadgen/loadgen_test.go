package loadgen

import (
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/pool"
)

// testServerConfig mirrors the pool chaos tests' shard tuning.
func testServerConfig() live.ServerConfig {
	return live.ServerConfig{NumPages: 4096, PageSize: 4096, LeaseTTL: 400 * time.Millisecond}
}

// testEnv builds a small, fast environment over the cluster.
func testEnv(c *Cluster, replicas int) *Env {
	env := &Env{
		Shards:   c.Addrs,
		Replicas: replicas,
		Users:    8,
		Keys:     64,
		ZipfS:    0.99,
		Mix:      SocialMix{Compose: 60, ReadHome: 30, ReadUser: 10},

		MediaSize: 2 << 10,
		Frontends: 2,
		ValueSize: 1 << 10,
		ReadFrac:  0.8,
		BlobSizes: []int{4 << 10},
		Hops:      2,
	}
	env.Pool = pool.Config{
		UnhealthyAfter: 2,
		RejoinPoll:     100 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
	}
	env.Pool.Client.HeartbeatInterval = 50 * time.Millisecond
	env.Pool.Client.Net.CallTimeout = 500 * time.Millisecond
	env.Pool.Client.Net.AttemptTimeout = 100 * time.Millisecond
	env.Pool.Client.Net.DialTimeout = 100 * time.Millisecond
	return env.Defaults()
}

// TestClosedLoopSocialNet drives the socialnet mix closed-loop against a
// 2-shard cluster and checks the merged result plus its report record.
func TestClosedLoopSocialNet(t *testing.T) {
	c, err := Launch(2, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := testEnv(c, 1)
	defer env.CloseSessions()

	s := SocialNet()
	if err := s.Setup(env); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := Run(s, env, RunConfig{
		Workers: 4,
		Warmup:  50 * time.Millisecond,
		Measure: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("closed-loop run completed zero ops")
	}
	if res.Errors != 0 {
		t.Fatalf("closed-loop run had %d errors", res.Errors)
	}
	if res.Achieved <= 0 {
		t.Fatalf("achieved rate %v, want > 0", res.Achieved)
	}
	// The 60% class must appear in a run of any length; tiny windows may
	// legitimately miss the 10% class.
	cr, ok := res.Classes["compose"]
	if !ok {
		t.Fatalf("no compose class in %v", res.Classes)
	}
	if cr.Latency.P50 <= 0 || cr.Latency.P99 < cr.Latency.P50 {
		t.Fatalf("implausible compose latency summary %+v", cr.Latency)
	}
}

// TestOpenLoopKV offers a fixed Poisson rate to the kv scenario and
// checks offered-vs-achieved accounting and payload verification.
func TestOpenLoopKV(t *testing.T) {
	c, err := Launch(1, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := testEnv(c, 1)
	defer env.CloseSessions()

	s := KV()
	if err := s.Setup(env); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := Run(s, env, RunConfig{
		Workers: 4,
		Rate:    200,
		Warmup:  50 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		Ramp:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("open-loop run completed zero ops")
	}
	if res.Errors != 0 {
		t.Fatalf("open-loop run had %d errors", res.Errors)
	}
	if res.Offered != 200 {
		t.Fatalf("offered rate %v, want 200", res.Offered)
	}
	if res.Counters["payload-loss"] != 0 {
		t.Fatalf("payload loss: %v", res.Counters["payload-loss"])
	}
	// Open loop on loopback at a modest rate: achieved should be within
	// a loose band of offered (drops are accounted, not silent).
	if res.Achieved < res.Offered/4 {
		t.Fatalf("achieved %v far below offered %v (drops %d)", res.Achieved, res.Offered, res.Drops)
	}
}

// TestKVCacheOnVerifiesBytes runs the kv mix with the hot-ref cache
// enabled on every harness session: the byte-for-byte read verification
// must still pass while writes churn the key space (stage new + free
// old), which exercises the epoch-driven invalidation path under real
// mixed load — and the hit counters must land in the run's report.
func TestKVCacheOnVerifiesBytes(t *testing.T) {
	c, err := Launch(2, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := testEnv(c, 1)
	env.Pool.CacheBytes = 1 << 20
	defer env.CloseSessions()

	s := KV()
	if err := s.Setup(env); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := Run(s, env, RunConfig{
		Workers: 4,
		Warmup:  50 * time.Millisecond,
		Measure: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("cache-on run completed zero ops")
	}
	if res.Errors != 0 {
		t.Fatalf("cache-on run had %d errors", res.Errors)
	}
	if res.Counters["payload-loss"] != 0 {
		t.Fatalf("payload loss with cache on: %v", res.Counters["payload-loss"])
	}
	if res.Counters["cache-hits"] <= 0 {
		t.Fatalf("cache-on run reported no hits: %v", res.Counters)
	}
	if hr := res.Counters["cache-hit-rate"]; hr <= 0 || hr > 1 {
		t.Fatalf("implausible cache-hit-rate %v", hr)
	}
}

// TestKillShardUnderLoad crashes and revives a shard mid-run at R=2 and
// requires every read that succeeded to have returned the right bytes —
// the zero-payload-loss bar for replicated failover.
func TestKillShardUnderLoad(t *testing.T) {
	c, err := Launch(3, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := testEnv(c, 2)
	defer env.CloseSessions()

	s := KV()
	if err := s.Setup(env); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const victim = 1
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(300 * time.Millisecond)
		if err := c.Kill(victim); err != nil {
			t.Errorf("kill shard %d: %v", victim, err)
			return
		}
		time.Sleep(500 * time.Millisecond)
		if err := c.Restart(victim); err != nil {
			t.Errorf("restart shard %d: %v", victim, err)
		}
	}()

	res, err := Run(s, env, RunConfig{
		Workers: 4,
		Warmup:  50 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops completed through the fault window")
	}
	if res.Counters["payload-loss"] != 0 {
		t.Fatalf("payload loss under failover: %v", res.Counters["payload-loss"])
	}
	t.Logf("kill-a-shard: ops=%d errors=%d retries=%v failover-reads=%v repairs=%v free-errors=%v",
		res.Ops, res.Errors, res.Counters["retries"], res.Counters["failover-reads"],
		res.Counters["repairs-done"], res.Counters["free-errors"])
}

// TestEndpointPick pins and round-robins deterministically.
func TestEndpointPick(t *testing.T) {
	if got := RoundRobin.pick(5, 3, 99); got != 2 {
		t.Fatalf("round-robin pick = %d, want 2", got)
	}
	a := Pinned.pick(0, 3, 7)
	for i := 0; i < 4; i++ {
		if Pinned.pick(0, 3, 7) != a {
			t.Fatal("pinned pick not stable")
		}
	}
	if RoundRobin.pick(2, 1, 0) != 0 {
		t.Fatal("single endpoint must map to 0")
	}
}

// noopScenario's workers complete every arrival at once, so an open-loop
// run against it measures the pacer alone.
type noopScenario struct{}

func (noopScenario) Name() string                        { return "noop" }
func (noopScenario) Setup(*Env) error                    { return nil }
func (noopScenario) NewWorker(*Env, int) (Worker, error) { return noopWorker{}, nil }
func (noopScenario) Counters() map[string]float64        { return nil }
func (noopScenario) Close() error                        { return nil }

type noopWorker struct{}

func (noopWorker) Do() (string, int64, error) { return "noop", 0, nil }
func (noopWorker) Close() error               { return nil }

// TestOpenLoopPacerDelivers: with nothing to wait for but the schedule,
// the pacer issues and completes at least 95 % of the offered rate. A
// pacer that sleeps one gap after each wake loses every oversleep and
// falls short.
func TestOpenLoopPacerDelivers(t *testing.T) {
	const rate = 2000
	res, err := Run(noopScenario{}, (&Env{}).Defaults(), RunConfig{
		Workers: 2,
		Rate:    rate,
		Measure: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("offered %v, arrivals %.0f/s (%d late), achieved %.0f ops/s, drops %d",
		res.Offered, res.Arrivals, res.Late, res.Achieved, res.Drops)
	if res.Achieved < 0.95*rate {
		t.Fatalf("achieved %.0f ops/s of %d offered", res.Achieved, rate)
	}
}

// TestOpenLoopRampOffers: a ramp offers arrivals from its first instant.
// A 200 ms ramp to 2000 ops/s offers about 200 arrivals, rate·ramp/2, in
// a window that ends with it; a ramp that paces its first arrival at its
// floor rate waits a second for it and delivers none.
func TestOpenLoopRampOffers(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := Run(noopScenario{}, (&Env{}).Defaults(), RunConfig{
			Workers: 2,
			Rate:    2000,
			Ramp:    200 * time.Millisecond,
			Measure: 200 * time.Millisecond,
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops < 100 {
			t.Fatalf("seed %d: a 200 ms ramp to 2000 ops/s delivered %d ops, want >= 100 of ~200 offered", seed, res.Ops)
		}
	}
}

func TestRampInverse(t *testing.T) {
	const rate, ramp = 2000.0, 0.2
	for _, c := range []struct {
		work float64
		want time.Duration
	}{
		{0, 0},
		{50, 100 * time.Millisecond}, // a quarter of the ramp's 200 arrivals by its midpoint
		{200, 200 * time.Millisecond},
		{2200, 1200 * time.Millisecond},
	} {
		got := rampInverse(c.work, rate, ramp)
		if d := got - c.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("rampInverse(%v) = %v, want %v", c.work, got, c.want)
		}
	}
	if got := rampInverse(500, rate, 0); got != 250*time.Millisecond {
		t.Errorf("no ramp: rampInverse(500) = %v, want 250ms", got)
	}
}
