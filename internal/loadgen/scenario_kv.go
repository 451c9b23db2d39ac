package loadgen

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/dm"
	"repro/internal/pool"
	"repro/internal/workload"
)

// kvScenario is YCSB-shaped key-value load straight on the DM pool:
// Keys staged refs form the store, reads fetch a Zipf-picked key's
// value and verify its content byte-for-byte, writes stage a fresh
// value and free the old one. All staging and freeing goes through one
// long-lived shared session so worker churn never reaps live values;
// reads run on per-worker sessions, which is where failover shows up.
type kvScenario struct {
	shared *pool.Client
	slots  []kvSlot
	value  int

	payloadLoss atomic.Int64
	freeErrors  atomic.Int64
}

type kvSlot struct {
	mu   sync.RWMutex
	ref  dm.Ref
	seed uint64
}

// KV builds the kv scenario.
func KV() Scenario { return &kvScenario{} }

func (s *kvScenario) Name() string { return "kv" }

func (s *kvScenario) Setup(env *Env) error {
	sess, err := env.newPool()
	if err != nil {
		return err
	}
	s.shared = sess
	s.value = env.ValueSize
	s.slots = make([]kvSlot, env.Keys)
	buf := make([]byte, env.ValueSize)
	for k := range s.slots {
		seed := uint64(k)
		apps.FillPayload(buf, seed)
		ref, err := sess.StageRef(buf)
		if err != nil {
			return fmt.Errorf("loadgen: kv preload key %d: %w", k, err)
		}
		s.slots[k].ref, s.slots[k].seed = ref, seed
	}
	return nil
}

func (s *kvScenario) NewWorker(env *Env, w int) (Worker, error) {
	sess, err := env.newPool()
	if err != nil {
		return nil, err
	}
	ws := workload.DeriveSeed(env.Seed, uint64(w))
	return &kvWorker{
		s:        s,
		sess:     sess,
		rng:      rand.New(rand.NewPCG(ws, ws^0x9e3779b97f4a7c15)),
		keys:     workerKeys(env, w, uint64(len(s.slots)), env.Seed),
		readFrac: env.ReadFrac,
		buf:      make([]byte, env.ValueSize),
		want:     make([]byte, env.ValueSize),
	}, nil
}

func (s *kvScenario) Counters() map[string]float64 {
	return map[string]float64{
		"payload-loss": float64(s.payloadLoss.Load()),
		"free-errors":  float64(s.freeErrors.Load()),
	}
}

func (s *kvScenario) Close() error { return nil }

type kvWorker struct {
	s        *kvScenario
	sess     *pool.Client
	rng      *rand.Rand
	keys     workload.KeyGen
	readFrac float64
	buf      []byte
	want     []byte
}

func (w *kvWorker) Do() (string, int64, error) {
	slot := &w.s.slots[w.keys.Next()]
	if w.rng.Float64() < w.readFrac {
		// Hold the read lock across the fetch so a concurrent write
		// can't free the ref out from under the read — the lock stands
		// in for the app-level ref-counting a real store would do.
		slot.mu.RLock()
		seed := slot.seed
		err := w.sess.ReadRef(slot.ref, 0, w.buf)
		slot.mu.RUnlock()
		if err != nil {
			return "read", 0, err
		}
		apps.FillPayload(w.want, seed)
		if !bytes.Equal(w.buf, w.want) {
			// A read that "succeeds" with wrong bytes is the one
			// failure the harness exists to catch.
			w.s.payloadLoss.Add(1)
			return "read", 0, fmt.Errorf("loadgen: kv payload mismatch (seed %d)", seed)
		}
		return "read", int64(len(w.buf)), nil
	}
	seed := w.rng.Uint64()
	apps.FillPayload(w.buf, seed)
	ref, err := w.s.shared.StageRef(w.buf)
	if err != nil {
		return "write", 0, err
	}
	slot.mu.Lock()
	old := slot.ref
	slot.ref, slot.seed = ref, seed
	slot.mu.Unlock()
	// The swap already published the new value; a failed free of the
	// old ref (say its primary is mid-crash) costs pool pages, not
	// correctness, so it's a counter rather than an op error.
	if err := w.s.shared.FreeRef(old); err != nil {
		w.s.freeErrors.Add(1)
	}
	return "write", int64(len(w.buf)), nil
}

func (w *kvWorker) Close() error { return nil }
