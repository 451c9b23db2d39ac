package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/dm"
	"repro/internal/liverpc"
	"repro/internal/pool"
	"repro/internal/workload"
)

// payloadTable holds every pattern apps.FillPayload can produce at one
// size, with its apps.Aggregate sum. FillPayload's bytes depend only on
// the low byte of the seed, so data[byte(seed)] is exactly
// FillPayload(buf, seed) and data[p[0]] is the only pattern a payload p
// can be. Building it once keeps fill and verify off the measured path:
// a 64 KiB fill costs several times the cache hit it would be checking.
type payloadTable struct {
	data [256][]byte
	sum  [256]uint64
}

func newPayloadTable(size int) *payloadTable {
	t := &payloadTable{}
	for i := range t.data {
		t.data[i] = make([]byte, size)
		apps.FillPayload(t.data[i], uint64(i))
		t.sum[i] = apps.Aggregate(t.data[i])
	}
	return t
}

// verify reports whether p is byte-for-byte the pattern its first byte
// announces.
func (t *payloadTable) verify(p []byte) bool {
	return len(p) > 0 && bytes.Equal(p, t.data[p[0]])
}

var errMismatch = errors.New("payload mismatch")

// app is one deployed workload. worker builds worker w's private state
// and returns its operation function.
type app interface {
	worker(w int) (opFunc, error)
	close()
}

// deployment is a launched cluster with one workload deployed on it.
type deployment struct {
	wl  *spec
	c   *cluster
	tr  *tracer
	in  *payloadTable
	app app
	// preloadFree is the cluster's free-page count once the kv preload
	// has been staged; a kv run must return to it.
	preloadFree int
}

func (d *deployment) poolConfig() pool.Config {
	return pool.Config{
		ReplicaFactor:   d.wl.replicas,
		RegistryHandoff: d.wl.registry,
		CacheBytes:      d.wl.cacheBytes,
	}
}

// rpcSession mints a session for a liverpc endpoint; on a traced run it
// is wrapped so every DM call made through it records a span. worker is
// -1 and cur nil for service-tier sessions.
func (d *deployment) rpcSession(worker int, cur *int64) (liverpc.DM, error) {
	p, err := d.c.session(d.poolConfig(), 0)
	if err != nil {
		return nil, err
	}
	if d.tr == nil {
		return p, nil
	}
	return &tracedDM{Client: p, tr: d.tr, worker: worker, cur: cur}, nil
}

func (d *deployment) serviceSession() (liverpc.DM, error) { return d.rpcSession(-1, nil) }

func (d *deployment) rpcConfig() liverpc.Config {
	return liverpc.Config{ForceInline: d.wl.byValue}
}

// deploy launches wl's cluster and deploys its application on it.
func deploy(wl *spec, seed uint64, in *payloadTable, tr *tracer) (*deployment, error) {
	c, err := launch(wl.shards, wl.pages)
	if err != nil {
		return nil, err
	}
	d := &deployment{wl: wl, c: c, tr: tr, in: in}
	switch wl.app {
	case appKV:
		d.app, err = deployKV(d, seed)
	case appChain:
		d.app, err = deployChain(d)
	case appSocial:
		d.app, err = deploySocial(d)
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	d.preloadFree = c.freePages()
	return d, nil
}

func (d *deployment) close() {
	if d.app != nil {
		d.app.close()
	}
	d.c.close()
}

// --- kv: key-value load straight on pool.Client ---

// kvApp is the store: keys staged refs, each slot remembering which
// pattern its value holds. Stages and frees go through one shared
// session so a value outlives the worker that wrote it; reads run on
// per-worker sessions (each with its own cache when one is configured).
type kvApp struct {
	d     *deployment
	store *pool.Client
	slots []kvSlot
}

type kvSlot struct {
	mu  sync.RWMutex
	ref dm.Ref
	val uint8
}

func deployKV(d *deployment, seed uint64) (app, error) {
	store, err := d.c.session(d.poolConfig(), 0)
	if err != nil {
		return nil, err
	}
	a := &kvApp{d: d, store: store, slots: make([]kvSlot, d.wl.keys)}
	for k := range a.slots {
		val := uint8(workload.DeriveSeed(seed, uint64(k)))
		ref, err := store.StageRef(d.in.data[val])
		if err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
		a.slots[k].ref, a.slots[k].val = ref, val
	}
	return a, nil
}

func (a *kvApp) worker(w int) (opFunc, error) {
	sess, err := a.d.c.session(a.d.poolConfig(), 0)
	if err != nil {
		return nil, err
	}
	tr, table := a.d.tr, a.d.in
	buf := make([]byte, a.d.wl.size)
	return func(o op, opSpan int64) (int64, error) {
		slot := &a.slots[o.key]
		if o.class == classRead {
			// The read lock is held across the fetch so a concurrent
			// write cannot free the ref under the read; it stands in
			// for the ref-counting a real store would do.
			slot.mu.RLock()
			ref, val := slot.ref, slot.val
			t0 := tr.now()
			err := sess.ReadRef(ref, 0, buf)
			tr.add(spanRead, w, opSpan, t0, ref.Key)
			slot.mu.RUnlock()
			if err != nil {
				return 0, fmt.Errorf("read: %w", err)
			}
			t0 = tr.now()
			same := bytes.Equal(buf, table.data[val])
			tr.add(spanFillVerify, w, opSpan, t0, 0)
			if !same {
				return 0, errMismatch
			}
			return int64(len(buf)), nil
		}
		val := uint8(o.seed)
		t0 := tr.now()
		ref, err := a.store.StageRef(table.data[val])
		tr.add(spanStage, w, opSpan, t0, ref.Key)
		if err != nil {
			return 0, fmt.Errorf("stage: %w", err)
		}
		slot.mu.Lock()
		old := slot.ref
		slot.ref, slot.val = ref, val
		slot.mu.Unlock()
		t0 = tr.now()
		err = a.store.FreeRef(old)
		tr.add(spanFree, w, opSpan, t0, old.Key)
		if err != nil {
			return 0, fmt.Errorf("free: %w", err)
		}
		return int64(len(table.data[val])), nil
	}, nil
}

func (a *kvApp) close() {} // its sessions close with the cluster's

// --- chain: the nested-RPC application of paper Fig 5 ---

type chainApp struct {
	d       *deployment
	dep     *liverpc.ChainDeployment
	clients []*liverpc.ChainClient
}

const chainHops = 3

func deployChain(d *deployment) (app, error) {
	dep, err := liverpc.DeployChainWith(chainHops, d.serviceSession, d.rpcConfig())
	if err != nil {
		return nil, err
	}
	return &chainApp{d: d, dep: dep}, nil
}

func (a *chainApp) worker(w int) (opFunc, error) {
	// cur lets the worker's own traced session name the running op as
	// the parent of the spans it records.
	cur := new(int64)
	var sess liverpc.DM
	if !a.d.wl.byValue {
		var err error
		if sess, err = a.d.rpcSession(w, cur); err != nil {
			return nil, err
		}
	}
	cl := liverpc.NewChainClient(sess, a.dep.Addrs[0], a.d.rpcConfig())
	a.clients = append(a.clients, cl)
	tr, table := a.d.tr, a.d.in
	return func(o op, opSpan int64) (int64, error) {
		*cur = opSpan
		val := uint8(o.seed)
		sum, err := cl.Do(table.data[val])
		if err != nil {
			return 0, err
		}
		t0 := tr.now()
		same := sum == table.sum[val]
		tr.add(spanFillVerify, w, opSpan, t0, 0)
		if !same {
			return 0, errMismatch
		}
		return int64(len(table.data[val])), nil
	}, nil
}

func (a *chainApp) close() {
	for _, cl := range a.clients {
		cl.Close()
	}
	a.dep.Close()
}

// --- socialnet: the trimmed DeathStarBench application of paper §VI-F ---

type socialApp struct {
	d       *deployment
	dep     *liverpc.SocialNetDeployment
	clients []*liverpc.SocialNetClient
}

const (
	socialFrontends = 2
	socialPage      = 4 // posts per timeline read
)

func deploySocial(d *deployment) (app, error) {
	dep, err := liverpc.DeploySocialNetWith(d.serviceSession, socialFrontends, d.rpcConfig())
	if err != nil {
		return nil, err
	}
	a := &socialApp{d: d, dep: dep}
	// One post per author, so no read-user pages an empty timeline.
	sess, err := d.serviceSession()
	if err != nil {
		a.close()
		return nil, err
	}
	cl := liverpc.NewSocialNetClient(sess, dep.Frontend, d.rpcConfig())
	defer cl.Close()
	for u := 0; u < d.wl.keys; u++ {
		if _, err := cl.ComposeAs(uint64(u), d.in.data[uint8(u)]); err != nil {
			a.close()
			return nil, fmt.Errorf("preload user %d: %w", u, err)
		}
	}
	return a, nil
}

func (a *socialApp) worker(w int) (opFunc, error) {
	cur := new(int64)
	sess, err := a.d.rpcSession(w, cur)
	if err != nil {
		return nil, err
	}
	front := a.dep.Frontends[w%len(a.dep.Frontends)]
	cl := liverpc.NewSocialNetClient(sess, front, a.d.rpcConfig())
	a.clients = append(a.clients, cl)
	tr, table := a.d.tr, a.d.in
	return func(o op, opSpan int64) (int64, error) {
		*cur = opSpan
		var posts [][]byte
		var err error
		switch o.class {
		case classWrite:
			media := table.data[uint8(o.seed)]
			_, err := cl.ComposeAs(o.key, media)
			return int64(len(media)), err
		case classRead:
			posts, err = cl.ReadHome(o.seed, socialPage)
		default:
			posts, err = cl.ReadUser(o.key, o.seed, socialPage)
		}
		if err != nil {
			return 0, err
		}
		t0 := tr.now()
		var n int64
		same := len(posts) == socialPage
		for _, p := range posts {
			same = same && len(p) == a.d.wl.size && table.verify(p)
			n += int64(len(p))
		}
		tr.add(spanFillVerify, w, opSpan, t0, 0)
		if !same {
			return 0, errMismatch
		}
		return n, nil
	}, nil
}

func (a *socialApp) close() {
	for _, cl := range a.clients {
		cl.Close()
	}
	a.dep.Close()
}
