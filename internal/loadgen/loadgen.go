// Package loadgen is the cluster load harness (ROADMAP: macro runs on
// the sharded pool): it drives a K-shard dmserverd cluster — launched
// in-process (Cluster) or attached over the network — with open-loop
// (Poisson) or closed-loop load from simulated users whose keys follow
// a Zipfian popularity skew, through pluggable application scenarios
// (socialnet, kv, blob) built on the same internal/liverpc services the
// micro-benchmarks use. Results aggregate per-worker AtomicHistograms
// and the transport/pool failure counters into a RunResult, which
// cmd/dmload writes as its JSON report.
//
// The open-loop machinery generalizes internal/workload's sim-only
// RunOpen (warmup, offered rate, drop accounting) to real sockets and
// wall-clock time; the key generators are shared with the simulator
// (workload.Zipf / workload.Uniform).
package loadgen

import (
	"fmt"
	"sync"

	"repro/internal/live"
	"repro/internal/liverpc"
	"repro/internal/pool"
)

// EndpointMode selects how workers map onto client-facing endpoints
// (socialnet frontends, kv pool sessions).
type EndpointMode int

const (
	// RoundRobin spreads workers evenly: worker i uses endpoint i mod E.
	RoundRobin EndpointMode = iota
	// Pinned assigns each worker a seeded-random endpoint and keeps it
	// for the whole run — the sticky-session shape, which can load
	// endpoints unevenly just like real affinity does.
	Pinned
)

// pick resolves worker w's endpoint among e choices.
func (m EndpointMode) pick(w, e int, seed uint64) int {
	if e <= 1 {
		return 0
	}
	if m == Pinned {
		return int(seed % uint64(e))
	}
	return w % e
}

// Env is the shared harness environment: the cluster under test plus
// every knob the scenarios read. Zero values mean defaults (see
// Defaults).
type Env struct {
	// Shards lists the cluster's server addresses, shard ID = index.
	Shards []string
	// Replicas is the pool replica factor R for harness sessions.
	Replicas int
	// Pool overrides session tuning (heartbeats, timeouts, repair
	// pacing); Shards and ReplicaFactor are filled from the fields
	// above at session-mint time.
	Pool pool.Config
	// RPC configures the liverpc endpoints the scenarios deploy.
	RPC liverpc.Config

	// Seed is the run's master seed; workers derive independent streams
	// from it (workload.DeriveSeed).
	Seed uint64
	// Users is the simulated-user population (socialnet authors).
	Users int
	// Keys is the kv scenario's key-space size.
	Keys int
	// ZipfS is the key/user popularity skew (0 = uniform, 0.99 = YCSB).
	ZipfS float64
	// Endpoint selects worker→endpoint mapping.
	Endpoint EndpointMode

	// Mix is the socialnet request mix in percent.
	Mix SocialMix
	// MediaSize is the socialnet post-media payload size in bytes.
	MediaSize int
	// Frontends is how many socialnet frontend movers to deploy.
	Frontends int
	// ValueSize is the kv scenario's value size in bytes.
	ValueSize int
	// ReadFrac is the kv scenario's read fraction in [0, 1].
	ReadFrac float64
	// BlobSizes is the blob scenario's payload sweep in bytes.
	BlobSizes []int
	// Hops is the blob scenario's chain length.
	Hops int

	mu       sync.Mutex
	sessions []*pool.Client
}

// SocialMix weights the socialnet request classes, in percent.
type SocialMix struct {
	Compose  int
	ReadHome int
	ReadUser int
}

// Defaults fills every zero knob with the harness default, returning e
// for chaining.
func (e *Env) Defaults() *Env {
	if e.Replicas < 1 {
		e.Replicas = 1
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Users == 0 {
		e.Users = 64
	}
	if e.Keys == 0 {
		e.Keys = 1024
	}
	if e.ZipfS == 0 {
		e.ZipfS = 0.99
	}
	if e.Mix == (SocialMix{}) {
		e.Mix = SocialMix{Compose: 60, ReadHome: 30, ReadUser: 10}
	}
	if e.MediaSize == 0 {
		e.MediaSize = 8 << 10
	}
	if e.Frontends == 0 {
		e.Frontends = 2
	}
	if e.ValueSize == 0 {
		e.ValueSize = 4 << 10
	}
	if e.ReadFrac == 0 {
		e.ReadFrac = 0.9
	}
	if len(e.BlobSizes) == 0 {
		// Crosses the 256 KiB stage-by-ref threshold from both sides.
		e.BlobSizes = []int{64 << 10, 256 << 10, 1 << 20}
	}
	if e.Hops == 0 {
		e.Hops = 3
	}
	return e
}

// NewSession mints one registered pool session over the cluster as a
// liverpc DM backend, for the Deploy*With factories and the scenarios'
// RPC clients, and tracks it so SessionTotals can aggregate its
// counters. The session is closed by CloseSessions, not by its scenario.
func (e *Env) NewSession() (liverpc.DM, error) {
	p, err := e.newPool()
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (e *Env) newPool() (*pool.Client, error) {
	if len(e.Shards) == 0 {
		return nil, fmt.Errorf("loadgen: no shards configured")
	}
	cfg := e.Pool
	cfg.Shards = e.Shards
	cfg.ReplicaFactor = e.Replicas
	p, err := pool.Dial(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Register(); err != nil {
		p.Close()
		return nil, err
	}
	e.mu.Lock()
	e.sessions = append(e.sessions, p)
	e.mu.Unlock()
	return p, nil
}

// JoinShard admits a freshly launched shard (Cluster.Join) to every
// session's pool — the join-a-shard fault schedule's client half. Each
// pool assigns the same positional shard ID and kicks its rebalancer,
// which migrates remapped refs onto the newcomer (DESIGN.md §D16).
func (e *Env) JoinShard(addr string) error {
	e.mu.Lock()
	sessions := append([]*pool.Client(nil), e.sessions...)
	e.mu.Unlock()
	for _, p := range sessions {
		if _, err := p.AddShard(addr); err != nil {
			return err
		}
	}
	return nil
}

// SessionTotals sums the transport counters across every session the
// harness minted, plus the pool-level replication and migration
// counters. Gauges (UnderReplicated) take the max across sessions;
// monotonic counters sum.
type SessionTotals struct {
	live.Stats
	FailoverReads     int64
	RepairsDone       int64
	RepairErrors      int64
	UnderReplicated   int64
	MigratedRefs      int64
	MigratedBytes     int64
	ReclaimedReplicas int64
}

// SessionTotals snapshots the aggregate counters at this instant.
func (e *Env) SessionTotals() SessionTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	var t SessionTotals
	for _, p := range e.sessions {
		st := p.Stats()
		t.Calls += st.Calls
		t.Retries += st.Retries
		t.Failures += st.Failures
		t.Timeouts += st.Timeouts
		t.TransportErrors += st.TransportErrors
		t.HeartbeatFailures += st.HeartbeatFailures
		t.CacheHits += st.CacheHits
		t.CacheMisses += st.CacheMisses
		t.CacheAdmits += st.CacheAdmits
		t.CacheEvictions += st.CacheEvictions
		t.CacheInvalidations += st.CacheInvalidations
		t.CacheCoalesced += st.CacheCoalesced
		t.FailoverReads += p.FailoverReads()
		t.RepairsDone += p.RepairsDone()
		t.RepairErrors += p.RepairErrors()
		t.MigratedRefs += p.MigratedRefs()
		t.MigratedBytes += p.MigratedBytes()
		t.ReclaimedReplicas += p.ReclaimedReplicas()
		if ur := int64(p.UnderReplicated()); ur > t.UnderReplicated {
			t.UnderReplicated = ur
		}
	}
	return t
}

// CloseSessions tears down every session the harness minted. Call once,
// after the scenarios are closed.
func (e *Env) CloseSessions() {
	e.mu.Lock()
	sessions := e.sessions
	e.sessions = nil
	e.mu.Unlock()
	for _, p := range sessions {
		p.Close()
	}
}

// Worker is one simulated user: Do issues one operation and reports the
// request class it chose (per-class latency histograms key on it), the
// payload bytes it moved, and the outcome. Workers are driven from a
// single goroutine each; Do need not be safe for concurrent use.
type Worker interface {
	Do() (class string, bytes int64, err error)
	Close() error
}

// Scenario is one pluggable request mix. Lifecycle: Setup once, then
// NewWorker per configured worker, Run drives them, Counters after the
// run, Close last.
type Scenario interface {
	Name() string
	// Setup deploys services and preloads state.
	Setup(env *Env) error
	// NewWorker builds worker w's private state (sessions, key
	// generators). Called after Setup.
	NewWorker(env *Env, w int) (Worker, error)
	// Counters reports scenario-level counters (e.g. payload-loss) for
	// the report's Extra block.
	Counters() map[string]float64
	Close() error
}
