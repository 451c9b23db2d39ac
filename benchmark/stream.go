package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/workload"
)

// op is one generated operation: the request class, the key (kv slot or
// socialnet user) and the seed its payload bytes derive from.
type op struct {
	class int
	key   uint64
	seed  uint64
}

// opStream is worker w's deterministic operation sequence: the same
// (seed, worker, workload) always yields the same ops. Every field is
// drawn on every call, so the sequence does not depend on which class
// came up.
type opStream struct {
	rng  *rand.Rand
	keys workload.KeyGen
	mix  [3]int
}

func newOpStream(wl *spec, seed uint64, w int) *opStream {
	ws := workload.DeriveSeed(seed, uint64(w))
	return &opStream{
		rng:  rand.New(rand.NewPCG(ws, ws^0x9e3779b97f4a7c15)),
		keys: workload.NewZipf(uint64(wl.keys), wl.zipf, workload.DeriveSeed(ws, 1)),
		mix:  wl.mix,
	}
}

func (s *opStream) next() op {
	p := s.rng.IntN(100)
	class := classReadAlt
	switch {
	case p < s.mix[classRead]:
		class = classRead
	case p < s.mix[classRead]+s.mix[classWrite]:
		class = classWrite
	}
	return op{class: class, key: s.keys.Next(), seed: s.rng.Uint64()}
}

// schedule precomputes an open loop's Poisson arrival times, as offsets
// from the run's start, covering span at rate arrivals per second. The
// generator then only has to keep up with a fixed list: when it wakes
// late it sends everything that is due, and each operation is timed
// from its due time, so a slow generator shows as lag and latency
// instead of silently lowering the offered rate.
func schedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	s := workload.DeriveSeed(seed, 0x0a11)
	rng := rand.New(rand.NewPCG(s, s^0x6a09e667f3bcc909))
	due := make([]time.Duration, 0, int(rate*span.Seconds()*1.1)+16)
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}
