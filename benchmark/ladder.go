package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/live"
	"repro/internal/liverpc"
	"repro/internal/pool"
	"repro/internal/rpc"
)

// The ladder times one operation per rung from a single goroutine
// against one dedicated cluster, bottom up: bare loopback TCP, then
// each layer's public entry point. Request/response rungs all have the
// same shape — the payload crosses the wire once and a few bytes come
// back (stage, by-value call) or the reverse (reads) — so a rung minus
// its base is the tax of the layer between them. The server's DM
// service time is inside every live.client rung and above; from outside
// it cannot be split off.

// rungFn is one rung at one size. op is timed per call; prep and post
// (either may be nil) run untimed around each batch of ops, outside the
// allocation and I/O counters, to build what op consumes and to give
// back what it produced.
type rungFn struct {
	prep, op, post func(i int) error
}

// ladderBatch is how many ops run between prep and post: enough staged
// refs in flight to matter, few enough to fit a 64 MiB shard at 256 KiB.
const ladderBatch = 64

type rungStats struct {
	ns, allocs, allocBytes, wireBytes, writeSyscalls float64
}

// measureRung runs iters/5 unrecorded ops, then iters recorded ones,
// and reports the median time per op and the process-wide allocation
// and write-syscall counts per op over the recorded batches.
func measureRung(iters int, f rungFn) (rungStats, error) {
	each := func(g func(int) error, n int) error {
		for i := 0; g != nil && i < n; i++ {
			if err := g(i); err != nil {
				return err
			}
		}
		return nil
	}
	lat := make([]float64, 0, iters)
	var mallocs, allocated uint64
	var wire procIO
	var ms0, ms1 runtime.MemStats
	for done := -(iters / 5); done < iters; {
		n := min(ladderBatch, iters-done)
		if done < 0 {
			n = min(ladderBatch, -done)
		}
		if err := each(f.prep, n); err != nil {
			return rungStats{}, err
		}
		io0, _ := readProcIO()
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := f.op(i); err != nil {
				return rungStats{}, err
			}
			if done >= 0 {
				lat = append(lat, float64(time.Since(t0)))
			}
		}
		runtime.ReadMemStats(&ms1)
		io1, _ := readProcIO()
		if done >= 0 {
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocated += ms1.TotalAlloc - ms0.TotalAlloc
			wire.syscw += io1.syscw - io0.syscw
			wire.wchar += io1.wchar - io0.wchar
		}
		if err := each(f.post, n); err != nil {
			return rungStats{}, err
		}
		done += n
	}
	n := float64(iters)
	return rungStats{
		ns:            median(lat),
		allocs:        float64(mallocs) / n,
		allocBytes:    float64(allocated) / n,
		wireBytes:     float64(wire.wchar) / n,
		writeSyscalls: float64(wire.syscw) / n,
	}, nil
}

// methodEcho is the ladder's transport-level method, clear of the DM
// (0x01xx) .. liverpc (0x06xx) method ranges.
const methodEcho rpc.Method = 0x0700

const (
	ladderDo    = "ladder.do"
	ladderEmpty = "ladder.empty"
)

// ladderEnv is everything the rungs call into.
type ladderEnv struct {
	c      *cluster
	closer []io.Closer

	floorAddr string
	nodeAddr  string
	node      *live.Node
	lc        *live.Client
	p1, pc    *pool.Client // K=1; pc with the hot-ref cache on
	p2, p2reg *pool.Client // K=3, R=2; p2reg with registry handoff
	svcAddr   string
	byRef     *liverpc.Caller
	byValue   *liverpc.Caller
}

func (e *ladderEnv) close() {
	for i := len(e.closer) - 1; i >= 0; i-- {
		e.closer[i].Close()
	}
	e.c.close()
}

func (e *ladderEnv) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		e.closer = append(e.closer, ln)
	}
	return ln, err
}

func newLadderEnv() (_ *ladderEnv, err error) {
	c, err := launch(3, pages64M)
	if err != nil {
		return nil, err
	}
	e := &ladderEnv{c: c}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	// Floor: a bare TCP peer that reads an announced number of bytes
	// and answers with 8.
	ln, err := e.listen()
	if err != nil {
		return nil, err
	}
	e.floorAddr = ln.Addr().String()
	go serveFloor(ln)

	// live.Node: the same exchange through framing and the batchwriter.
	srv := live.NewNode()
	srv.HandleFast(methodEcho, func(_ net.Addr, body []byte) ([]byte, error) {
		return binary.BigEndian.AppendUint64(nil, uint64(len(body))), nil
	})
	if ln, err = e.listen(); err != nil {
		return nil, err
	}
	e.nodeAddr = ln.Addr().String()
	go srv.Serve(ln)
	e.node = live.NewNode()
	e.closer = append(e.closer, srv, e.node)

	if e.lc, err = live.Dial(c.addrs[0]); err != nil {
		return nil, err
	}
	e.closer = append(e.closer, e.lc)
	if err = e.lc.Register(); err != nil {
		return nil, err
	}
	if err = c.touchPages(); err != nil {
		return nil, err
	}
	if e.p1, err = c.session(pool.Config{}, 1); err != nil {
		return nil, err
	}
	if e.pc, err = c.session(pool.Config{CacheBytes: 8 << 20}, 1); err != nil {
		return nil, err
	}
	if e.p2, err = c.session(pool.Config{ReplicaFactor: 2}, 0); err != nil {
		return nil, err
	}
	if e.p2reg, err = c.session(pool.Config{ReplicaFactor: 2, RegistryHandoff: true}, 0); err != nil {
		return nil, err
	}

	// liverpc: one service that materializes its argument and answers
	// with its length, one by-ref and one by-value caller.
	svcDM, err := c.session(pool.Config{}, 1)
	if err != nil {
		return nil, err
	}
	svc := liverpc.NewService("ladder", svcDM, liverpc.Config{})
	svc.Handle(ladderDo, func(ctx *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		buf, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		return []liverpc.Payload{liverpc.U64(uint64(len(buf)))}, nil
	})
	svc.Handle(ladderEmpty, func(_ *liverpc.Ctx, args []liverpc.Payload) ([]liverpc.Payload, error) {
		v, err := args[0].AsU64()
		return []liverpc.Payload{liverpc.U64(v)}, err
	})
	if ln, err = e.listen(); err != nil {
		return nil, err
	}
	e.svcAddr = ln.Addr().String()
	go svc.Serve(ln)
	callerDM, err := c.session(pool.Config{}, 1)
	if err != nil {
		return nil, err
	}
	e.byRef = liverpc.NewCaller(callerDM, liverpc.Config{})
	e.byValue = liverpc.NewCaller(nil, liverpc.Config{ForceInline: true})
	e.closer = append(e.closer, svc, e.byRef, e.byValue)
	return e, nil
}

// serveFloor answers each connection's exchanges: the first 4 bytes
// announce the request size, then every request of that size gets the
// 8-byte count back.
func serveFloor(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			ack := binary.BigEndian.AppendUint64(nil, uint64(len(buf)))
			for {
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				if _, err := c.Write(ack); err != nil {
					return
				}
			}
		}()
	}
}

func wantLen(got uint64, size int) error {
	if got != uint64(size) {
		return fmt.Errorf("peer saw %d bytes, sent %d", got, size)
	}
	return nil
}

// stager is the stage/free half of a DM client, as the stage rungs use it.
type stager interface {
	StageRef(data []byte) (dm.Ref, error)
	FreeRef(ref dm.Ref) error
}

func stageRung(s stager, data []byte) rungFn {
	refs := make([]dm.Ref, ladderBatch)
	return rungFn{
		op:   func(i int) (err error) { refs[i], err = s.StageRef(data); return err },
		post: func(i int) error { return s.FreeRef(refs[i]) },
	}
}

// rung builds the named rung at one payload size. Refs a rung stages
// for itself stay until the cluster closes.
func (e *ladderEnv) rung(name string, size int) (rungFn, error) {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	dst := make([]byte, size)
	switch name {
	case "tcp_floor.echo":
		c, err := net.Dial("tcp", e.floorAddr)
		if err != nil {
			return rungFn{}, err
		}
		e.closer = append(e.closer, c)
		if _, err := c.Write(binary.BigEndian.AppendUint32(nil, uint32(size))); err != nil {
			return rungFn{}, err
		}
		var ack [8]byte
		return rungFn{op: func(int) error {
			if _, err := c.Write(data); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, ack[:]); err != nil {
				return err
			}
			return wantLen(binary.BigEndian.Uint64(ack[:]), size)
		}}, nil

	case "dmwire.envelope":
		env := dmwire.CallEnvelope{
			Method: ladderDo, TraceID: 1, Hop: 1, DeadlineMillis: 15000,
			Args: []dmwire.CallArg{{IsRef: true, Located: true, Ref: dm.Ref{Server: 1, Key: 42, Size: 4096}}},
		}
		return rungFn{op: func(int) error {
			got, err := dmwire.UnmarshalCallEnvelope(env.Marshal())
			if err == nil && (len(got.Args) != 1 || got.Args[0].Ref != env.Args[0].Ref) {
				err = errMismatch
			}
			return err
		}}, nil

	case "live.node.call":
		return rungFn{op: func(int) error {
			resp, err := e.node.Call(e.nodeAddr, methodEcho, data)
			if err != nil {
				return err
			}
			return wantLen(binary.BigEndian.Uint64(resp), size)
		}}, nil

	case "live.client.stage":
		return stageRung(e.lc, data), nil
	case "pool.stage_r1":
		return stageRung(e.p1, data), nil
	case "pool.stage_r2":
		return stageRung(e.p2, data), nil
	case "registry.stage_r2":
		return stageRung(e.p2reg, data), nil

	case "live.client.readref":
		ref, err := e.lc.StageRef(data)
		return rungFn{op: func(int) error { return e.lc.ReadRef(ref, 0, dst) }}, err
	case "live.client.readlease":
		ref, err := e.lc.StageRef(data)
		return rungFn{op: func(int) error {
			b, err := e.lc.ReadRefLease(ref, 0, int64(size))
			if err == nil {
				b.Release()
			}
			return err
		}}, err
	case "pool.readref_r1":
		ref, err := e.p1.StageRef(data)
		return rungFn{op: func(int) error { return e.p1.ReadRef(ref, 0, dst) }}, err

	case "refcache.hit":
		ref, err := e.pc.StageRef(data)
		return rungFn{op: func(int) error {
			b, err := e.pc.ReadRefLease(ref, 0, int64(size))
			if err == nil {
				b.Release()
			}
			return err
		}}, err
	case "refcache.miss":
		// Cold keys: every read is of a ref staged since the last batch
		// and never read before.
		refs := make([]dm.Ref, ladderBatch)
		return rungFn{
			prep: func(i int) (err error) { refs[i], err = e.pc.StageRef(data); return err },
			op: func(i int) error {
				err := e.pc.ReadRef(refs[i], 0, dst)
				if err == nil && !bytes.Equal(dst, data) {
					err = errMismatch
				}
				return err
			},
			post: func(i int) error { return e.pc.FreeRef(refs[i]) },
		}, nil

	case "liverpc.call_empty":
		return rungFn{op: func(i int) error {
			res, err := e.byRef.Call(e.svcAddr, ladderEmpty, liverpc.U64(uint64(i)))
			if err != nil {
				return err
			}
			got, err := res[0].AsU64()
			if err == nil && got != uint64(i) {
				err = errMismatch
			}
			return err
		}}, nil
	case "liverpc.call_byvalue":
		return e.callRung(e.byValue, data), nil
	case "liverpc.call_byref":
		return e.callRung(e.byRef, data), nil
	}
	return rungFn{}, fmt.Errorf("no rung %q", name)
}

// callRung is one hop the way an application makes it: Stage, Call,
// the service's Ctx.Fetch, Release. A by-value caller inlines at Stage
// and has nothing to release.
func (e *ladderEnv) callRung(c *liverpc.Caller, data []byte) rungFn {
	return rungFn{op: func(int) error {
		arg, err := c.Stage(data)
		if err != nil {
			return err
		}
		res, err := c.Call(e.svcAddr, ladderDo, arg)
		if rerr := c.Release(arg); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		got, err := res[0].AsU64()
		if err == nil {
			err = wantLen(got, len(data))
		}
		return err
	}}
}

// runLadder measures every rung and returns the ladder's per-layer
// metrics by name.
func runLadder(iters int, seed uint64) (map[string]float64, error) {
	// One P: on a shared 2-vCPU host a cross-core goroutine wake-up
	// costs 20-30 us and strikes at random, which moved rung medians by
	// 2x between runs and swamped every layer's tax. On one P each hop
	// is a goroutine switch on one thread, so a rung is the CPU path
	// length of its layer stack — what bounds throughput once both
	// cores are busy, as they are in the closed-loop workloads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, err := newLadderEnv()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer e.close()
	warmHeap()
	out := map[string]float64{}
	for _, r := range rungs {
		sizes := ladderSizes
		if !r.sized {
			sizes = sizes[:1]
		}
		for _, sz := range sizes {
			f, err := e.rung(r.name, sz.bytes)
			if err != nil {
				return nil, fmt.Errorf("ladder: %s: %w", r.name, err)
			}
			runtime.GC()
			st, err := measureRung(iters, f)
			if err != nil {
				return nil, fmt.Errorf("ladder: %s%s: %w", r.name, sz.suffix, err)
			}
			suffix := sz.suffix
			if !r.sized {
				suffix = ""
			}
			out[r.name+".ns"+suffix] = st.ns
			out[r.name+".allocs"+suffix] = st.allocs
			if r.bytes {
				out[r.name+".alloc_bytes"+suffix] = st.allocBytes
			}
			if r.wire {
				out[r.name+".wire_bytes"+suffix] = st.wireBytes
				out[r.name+".write_syscalls"+suffix] = st.writeSyscalls
			}
		}
	}
	closure, err := ladderClosure(iters, seed, out["pool.readref_r1.ns_4k"])
	if err != nil {
		return nil, fmt.Errorf("ladder: closure: %w", err)
	}
	out["driver.ladder_closure_frac"] = closure
	return out, nil
}

// ladderClosure checks that the rungs add up to an end-to-end number:
// it runs kv4k_read's read operation from one worker on a K=1 cluster
// and returns (payload verify + the pool.readref_r1 rung) over the
// operation's median time. What is missing from 1 is the driver's own
// stream, lock and loop.
func ladderClosure(iters int, seed uint64, readrefNs float64) (float64, error) {
	wl := *findWorkload("kv4k_read")
	wl.shards, wl.keys, wl.mix = 1, 256, [3]int{100, 0, 0}
	table := newPayloadTable(wl.size)
	d, err := deploy(&wl, seed, table, nil)
	if err != nil {
		return 0, err
	}
	defer d.close()
	do, err := d.app.worker(0)
	if err != nil {
		return 0, err
	}
	st := newOpStream(&wl, seed, 0)
	opNs := make([]float64, 0, iters)
	verifyNs := make([]float64, 0, iters)
	buf := append([]byte(nil), table.data[7]...)
	for i := -(iters / 5); i < iters; i++ {
		o := st.next()
		t0 := time.Now()
		if _, err := do(o, 0); err != nil {
			return 0, err
		}
		t1 := time.Now()
		same := bytes.Equal(buf, table.data[7])
		t2 := time.Now()
		if !same {
			return 0, errMismatch
		}
		if i >= 0 {
			opNs = append(opNs, float64(t1.Sub(t0)))
			verifyNs = append(verifyNs, float64(t2.Sub(t1)))
		}
	}
	return (median(verifyNs) + readrefNs) / median(opNs), nil
}
