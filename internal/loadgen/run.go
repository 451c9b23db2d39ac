package loadgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// RunConfig shapes one measured run of a scenario.
type RunConfig struct {
	// Workers is the number of concurrent simulated users.
	Workers int
	// Rate is the offered load in ops/s across all workers (open loop,
	// Poisson arrivals). 0 runs closed-loop: every worker issues
	// back-to-back.
	Rate float64
	// Warmup runs load without recording before the measure window.
	Warmup time.Duration
	// Measure is the recorded window.
	Measure time.Duration
	// Ramp linearly grows the offered rate from 0 to Rate over this
	// span at run start (open loop only), so connection setup and cold
	// caches don't register as a latency cliff.
	Ramp time.Duration
	// MaxOutstanding bounds the open-loop arrival queue; arrivals past
	// it are dropped and counted, exactly like workload.RunOpen's
	// sim-side accounting (0 = 4096).
	MaxOutstanding int
	// Seed overrides Env.Seed for this run when nonzero.
	Seed uint64
}

// ClassResult is one request class's measured aggregate. Latencies are
// in nanoseconds.
type ClassResult struct {
	Ops     int64         `json:"ops"`
	Errors  int64         `json:"errors"`
	Bytes   int64         `json:"bytes"`
	Latency stats.Summary `json:"latency_ns"`
}

// RunResult is one scenario run's aggregate, and one entry of
// cmd/dmload's JSON report.
type RunResult struct {
	Scenario string        `json:"scenario"`
	Workers  int           `json:"workers"`
	Measure  time.Duration `json:"measure_ns"`
	// Offered is the configured open-loop rate (0 for closed loop);
	// Arrivals is the rate the generator issued over the measure window,
	// and Late how many of those arrivals were already due when the
	// generator reached them; Achieved is completed ops/s.
	Offered  float64                `json:"offered_ops_s"`
	Arrivals float64                `json:"arrivals_s"`
	Late     int64                  `json:"late_arrivals"`
	Achieved float64                `json:"achieved_ops_s"`
	Ops      int64                  `json:"ops"`
	Errors   int64                  `json:"errors"`
	Drops    int64                  `json:"drops"`
	Bytes    int64                  `json:"bytes"`
	Latency  stats.Summary          `json:"latency_ns"`
	Classes  map[string]ClassResult `json:"classes"`
	// Counters merges the scenario's own counters with the session
	// counter deltas across the run (retries, timeouts, failover...).
	Counters map[string]float64 `json:"counters"`
}

// workerRec accumulates one worker's measurements without locks; the
// runner merges them (stats.AtomicHistogram.Merge) after the run.
type workerRec struct {
	classes map[string]*classRec
}

type classRec struct {
	hist   stats.AtomicHistogram
	ops    int64
	errors int64
	bytes  int64
}

func (r *workerRec) rec(class string, lat time.Duration, bytes int64, err error) {
	c := r.classes[class]
	if c == nil {
		c = &classRec{}
		r.classes[class] = c
	}
	if err != nil {
		c.errors++
		return
	}
	c.ops++
	c.bytes += bytes
	c.hist.Record(lat.Nanoseconds())
}

// Run drives an already-Setup scenario with cfg's load shape and
// returns the merged result. Workers are created fresh per run and
// closed before it returns.
func Run(s Scenario, env *Env, cfg RunConfig) (RunResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Measure <= 0 {
		return RunResult{}, fmt.Errorf("loadgen: Measure must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = env.Seed
	}
	workers := make([]Worker, cfg.Workers)
	for i := range workers {
		w, err := s.NewWorker(env, i)
		if err != nil {
			for _, w := range workers[:i] {
				w.Close()
			}
			return RunResult{}, fmt.Errorf("loadgen: %s worker %d: %w", s.Name(), i, err)
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	before := env.SessionTotals()
	recs := make([]*workerRec, cfg.Workers)
	for i := range recs {
		recs[i] = &workerRec{classes: make(map[string]*classRec)}
	}

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	measureTo := measureFrom.Add(cfg.Measure)
	var drops, arrivals, late atomic.Int64
	var wg sync.WaitGroup

	if cfg.Rate > 0 {
		// Open loop: one Poisson arrival process feeds a bounded queue;
		// workers complete arrivals, latency runs from the arrival's due
		// time so queueing delay, and the generator's own lateness, are
		// charged to the run.
		maxOut := cfg.MaxOutstanding
		if maxOut <= 0 {
			maxOut = 4096
		}
		jobs := make(chan time.Time, maxOut)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
			// Arrival k is due where the offered rate's integral from start
			// reaches the sum of k unit exponential draws, so an oversleep
			// delays one arrival, not the whole schedule, and the ramp
			// offers arrivals from its first instant.
			var work float64 // expected arrivals offered by arrival k
			for {
				work -= math.Log(1 - rng.Float64())
				due := start.Add(rampInverse(work, cfg.Rate, cfg.Ramp.Seconds()))
				if !due.Before(measureTo) {
					return
				}
				measured := !due.Before(measureFrom)
				if time.Now().Before(due) {
					waitUntil(due)
				} else if measured {
					late.Add(1) // already due: sent at once
				}
				if measured {
					arrivals.Add(1)
				}
				select {
				case jobs <- due:
				default:
					if measured {
						drops.Add(1)
					}
				}
			}
		}()
		for i, w := range workers {
			wg.Add(1)
			go func(w Worker, rec *workerRec) {
				defer wg.Done()
				for arrive := range jobs {
					class, n, err := w.Do()
					if !arrive.Before(measureFrom) {
						rec.rec(class, time.Since(arrive), n, err)
					}
				}
			}(w, recs[i])
		}
	} else {
		// Closed loop: each worker issues back-to-back; latency is pure
		// service time.
		for i, w := range workers {
			wg.Add(1)
			go func(w Worker, rec *workerRec) {
				defer wg.Done()
				for {
					t0 := time.Now()
					if !t0.Before(measureTo) {
						return
					}
					class, n, err := w.Do()
					if !t0.Before(measureFrom) {
						rec.rec(class, time.Since(t0), n, err)
					}
				}
			}(w, recs[i])
		}
	}
	wg.Wait()

	res := RunResult{
		Scenario: s.Name(),
		Workers:  cfg.Workers,
		Measure:  cfg.Measure,
		Offered:  cfg.Rate,
		Arrivals: float64(arrivals.Load()) / cfg.Measure.Seconds(),
		Late:     late.Load(),
		Drops:    drops.Load(),
		Classes:  make(map[string]ClassResult),
		Counters: make(map[string]float64),
	}
	// Merge per-worker records: histograms via AtomicHistogram.Merge,
	// counters by summation.
	merged := make(map[string]*classRec)
	var total stats.AtomicHistogram
	for _, rec := range recs {
		for class, c := range rec.classes {
			m := merged[class]
			if m == nil {
				m = &classRec{}
				merged[class] = m
			}
			m.hist.Merge(&c.hist)
			total.Merge(&c.hist)
			m.ops += c.ops
			m.errors += c.errors
			m.bytes += c.bytes
		}
	}
	for class, m := range merged {
		res.Classes[class] = ClassResult{
			Ops:     m.ops,
			Errors:  m.errors,
			Bytes:   m.bytes,
			Latency: m.hist.Summarize(),
		}
		res.Ops += m.ops
		res.Errors += m.errors
		res.Bytes += m.bytes
	}
	res.Latency = total.Summarize()
	res.Achieved = float64(res.Ops) / cfg.Measure.Seconds()

	after := env.SessionTotals()
	res.Counters["retries"] = float64(after.Retries - before.Retries)
	res.Counters["timeouts"] = float64(after.Timeouts - before.Timeouts)
	res.Counters["transport-errors"] = float64(after.TransportErrors - before.TransportErrors)
	res.Counters["failures"] = float64(after.Failures - before.Failures)
	res.Counters["failover-reads"] = float64(after.FailoverReads - before.FailoverReads)
	res.Counters["repairs-done"] = float64(after.RepairsDone - before.RepairsDone)
	res.Counters["under-replicated"] = float64(after.UnderReplicated)
	res.Counters["migrated-refs"] = float64(after.MigratedRefs - before.MigratedRefs)
	res.Counters["migrated-bytes"] = float64(after.MigratedBytes - before.MigratedBytes)
	res.Counters["reclaimed-replicas"] = float64(after.ReclaimedReplicas - before.ReclaimedReplicas)
	if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits+misses > 0 {
		res.Counters["cache-hits"] = float64(hits)
		res.Counters["cache-misses"] = float64(misses)
		res.Counters["cache-hit-rate"] = float64(hits) / float64(hits+misses)
	}
	for k, v := range s.Counters() {
		res.Counters[k] = v
	}
	return res, nil
}

// rampInverse returns when an offered rate that grows linearly from 0 to
// rate over ramp seconds, and holds there, has offered work arrivals
// in expectation: the inverse of its integral, rate·t²/2ramp on the
// ramp and rate·(t − ramp/2) after it.
func rampInverse(work, rate, ramp float64) time.Duration {
	t := work/rate + ramp/2
	if onRamp := rate * ramp / 2; work < onRamp {
		t = math.Sqrt(2 * ramp * work / rate)
	}
	return time.Duration(t * float64(time.Second))
}

// waitUntil returns at due: it sleeps to about a millisecond before, since
// a sleep can wake that late, and yields the processor for the rest.
func waitUntil(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// workerKeys builds worker w's private key generator over n keys with
// the environment's skew, on an independent per-worker stream.
func workerKeys(env *Env, w int, n uint64, seed uint64) workload.KeyGen {
	ws := workload.DeriveSeed(seed, uint64(w))
	if env.ZipfS <= 0 {
		return workload.NewUniform(n, ws)
	}
	return workload.NewZipf(n, env.ZipfS, ws)
}
