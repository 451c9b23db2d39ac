package liverpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dmwire"
	"repro/internal/faultnet"
	"repro/internal/live"
	"repro/internal/pool"
	"repro/internal/rpc"
)

// startDM runs a live DM server on loopback and returns it with its
// address.
func startDM(t *testing.T, cfg live.ServerConfig) (*live.Server, string) {
	t.Helper()
	srv := live.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("dm serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("dm close: %v", err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

func smallDM() live.ServerConfig { return live.ServerConfig{NumPages: 256, PageSize: 4096} }

// newSession dials and registers one pool session: the one DM backend
// liverpc runs on. A single server is the one-shard pool
// pool.Config{Shards: {addr}}.
func newSession(cfg pool.Config) (*pool.Client, error) {
	p, err := pool.Dial(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Register(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// dialPool registers a pool session for a test, closed at cleanup.
func dialPool(tb testing.TB, cfg pool.Config) *pool.Client {
	tb.Helper()
	p, err := newSession(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p
}

// dialDM registers a one-shard pool session on the DM server at addr.
func dialDM(tb testing.TB, addr string) *pool.Client {
	tb.Helper()
	return dialPool(tb, pool.Config{Shards: []string{addr}})
}

// sessions is the Deploy*With session factory for the DM server at
// addr: one one-shard pool session per call, closed with the deployment.
func sessions(addr string) func() (DM, error) {
	return func() (DM, error) {
		p, err := newSession(pool.Config{Shards: []string{addr}})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// deployChain deploys a hops-long chain on the DM server at addr.
func deployChain(tb testing.TB, hops int, addr string, cfg Config) *ChainDeployment {
	tb.Helper()
	d, err := DeployChainWith(hops, sessions(addr), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	return d
}

// deploySocialNet deploys the social network, one frontend, on the DM
// server at addr.
func deploySocialNet(tb testing.TB, addr string, cfg Config) *SocialNetDeployment {
	tb.Helper()
	d, err := DeploySocialNetWith(sessions(addr), 1, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	return d
}

// serveService starts s on a loopback listener and returns its address.
func serveService(t *testing.T, s *Service) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

func TestInlineCallRoundTrip(t *testing.T) {
	s := NewService("echo", nil, Config{})
	s.Handle("echo", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		out := make([]Payload, len(args))
		for i, a := range args {
			buf, err := ctx.Fetch(a)
			if err != nil {
				return nil, err
			}
			out[i] = Inline(append([]byte("got:"), buf...))
		}
		return out, nil
	})
	addr := serveService(t, s)

	c := NewCaller(nil, Config{})
	defer c.Close()
	res, err := c.Call(addr, "echo", Inline([]byte("a")), Inline([]byte("bb")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || string(res[0].Inline()) != "got:a" || string(res[1].Inline()) != "got:bb" {
		t.Fatalf("echo returned %v", res)
	}
}

func TestRefPayloadStagedOnceAndMaterializedAtConsumer(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	sdm := dialDM(t, dmAddr)
	cdm := dialDM(t, dmAddr)

	var sawRef atomic.Bool
	s := NewService("sum", sdm, Config{})
	s.Handle("sum", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		sawRef.Store(args[0].IsRef())
		buf, err := ctx.Fetch(args[0])
		if err != nil {
			return nil, err
		}
		var sum uint64
		for _, b := range buf {
			sum += uint64(b)
		}
		return []Payload{U64(sum)}, nil
	})
	addr := serveService(t, s)

	c := NewCaller(cdm, Config{InlineThreshold: 512})
	defer c.Close()
	payload := bytes.Repeat([]byte{3}, 8192)
	arg, err := c.Stage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !arg.IsRef() {
		t.Fatalf("8 KiB payload above a 512 B threshold did not stage: %v", arg)
	}
	res, err := c.Call(addr, "sum", arg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res[0].AsU64()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 * 8192); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if !sawRef.Load() {
		t.Fatal("consumer saw an inline payload, want a ref")
	}
	if err := c.Release(arg); err != nil {
		t.Fatal(err)
	}
	if n := srv.LiveRefs(); n != 0 {
		t.Fatalf("LiveRefs after release = %d, want 0", n)
	}
}

func TestStageThreshold(t *testing.T) {
	_, dmAddr := startDM(t, smallDM())
	cdm := dialDM(t, dmAddr)
	c := NewCaller(cdm, Config{InlineThreshold: 100})
	defer c.Close()

	small, err := c.Stage(make([]byte, 100))
	if err != nil || small.IsRef() {
		t.Fatalf("payload at the threshold: ref=%v err=%v", small.IsRef(), err)
	}
	big, err := c.Stage(make([]byte, 101))
	if err != nil || !big.IsRef() {
		t.Fatalf("payload above the threshold: ref=%v err=%v", big.IsRef(), err)
	}
	c.Release(big)

	forced := NewCaller(nil, Config{ForceInline: true})
	defer forced.Close()
	huge, err := forced.Stage(make([]byte, 1<<20))
	if err != nil || huge.IsRef() {
		t.Fatalf("ForceInline staged by ref: ref=%v err=%v", huge.IsRef(), err)
	}

	always := NewCaller(cdm, Config{InlineThreshold: -1})
	defer always.Close()
	tiny, err := always.Stage([]byte{1})
	if err != nil || !tiny.IsRef() {
		t.Fatalf("negative threshold kept 1 byte inline: ref=%v err=%v", tiny.IsRef(), err)
	}
	always.Release(tiny)
}

func TestDeadlinePropagation(t *testing.T) {
	// middle forwards to tail; tail reports its remaining budget. The
	// budget must shrink monotonically along the chain, and the hop and
	// trace fields must propagate.
	tail := NewService("tail", nil, Config{})
	var tailHop atomic.Uint32
	var tailTrace atomic.Uint64
	tail.Handle("probe", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		tailHop.Store(uint32(ctx.Hop))
		tailTrace.Store(ctx.TraceID)
		return []Payload{U64(uint64(ctx.Remaining() / time.Millisecond))}, nil
	})
	tailAddr := serveService(t, tail)

	mid := NewService("mid", nil, Config{})
	mid.Handle("probe", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		time.Sleep(30 * time.Millisecond) // burn some budget
		return ctx.Call(tailAddr, "probe", args...)
	})
	midAddr := serveService(t, mid)

	c := NewCaller(nil, Config{})
	defer c.Close()
	res, err := c.CallWithin(midAddr, "probe", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	remaining, err := res[0].AsU64()
	if err != nil {
		t.Fatal(err)
	}
	if remaining == 0 || remaining > 2000-25 {
		t.Fatalf("tail saw %d ms remaining, want (0, %d)", remaining, 2000-25)
	}
	if tailHop.Load() != 1 {
		t.Fatalf("tail hop = %d, want 1 (one service-to-service forward)", tailHop.Load())
	}
	if tailTrace.Load() == 0 {
		t.Fatal("trace ID did not propagate")
	}
}

func TestExpiredDeadlineFailsFast(t *testing.T) {
	tail := NewService("tail", nil, Config{})
	tailAddr := serveService(t, tail) // never called
	mid := NewService("mid", nil, Config{})
	mid.Handle("slow", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		time.Sleep(150 * time.Millisecond) // overshoot the caller's budget
		return ctx.Call(tailAddr, "nothing")
	})
	midAddr := serveService(t, mid)

	cfg := Config{}
	cfg.Net.AttemptTimeout = 80 * time.Millisecond
	cfg.Net.MaxRetries = -1
	c := NewCaller(nil, cfg)
	defer c.Close()
	_, err := c.CallWithin(midAddr, "slow", 80*time.Millisecond)
	if !errors.Is(err, live.ErrDeadline) {
		t.Fatalf("expired call = %v, want ErrDeadline", err)
	}
}

func TestUnknownMethodError(t *testing.T) {
	s := NewService("svc", nil, Config{})
	s.Handle("known", func(*Ctx, []Payload) ([]Payload, error) { return nil, nil })
	addr := serveService(t, s)
	c := NewCaller(nil, Config{})
	defer c.Close()
	_, err := c.Call(addr, "unknown")
	var app *rpc.AppError
	if !errors.As(err, &app) || !strings.Contains(app.Msg, "unknown") {
		t.Fatalf("unknown method = %v, want AppError naming the method", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	s := NewService("svc", nil, Config{})
	s.Handle("fail", func(*Ctx, []Payload) ([]Payload, error) {
		return nil, fmt.Errorf("kaboom at depth")
	})
	addr := serveService(t, s)
	c := NewCaller(nil, Config{})
	defer c.Close()
	_, err := c.Call(addr, "fail")
	var app *rpc.AppError
	if !errors.As(err, &app) || !strings.Contains(app.Msg, "kaboom") {
		t.Fatalf("handler error = %v, want AppError carrying the message", err)
	}
}

// TestCallDedupAcrossTornWrite proves app calls reuse the transport's
// at-most-once retries: a torn first write retries transparently, and
// the handler still executes exactly once.
func TestCallDedupAcrossTornWrite(t *testing.T) {
	var runs atomic.Int32
	s := NewService("svc", nil, Config{})
	s.Handle("mutate", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return []Payload{U64(uint64(runs.Add(1)))}, nil
	})
	addr := serveService(t, s)

	inj := faultnet.New()
	cfg := Config{}
	cfg.Net.Dialer = func(a string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, timeout)
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	}
	cfg.Net.AttemptTimeout = time.Second
	c := NewCaller(nil, cfg)
	defer c.Close()

	inj.TruncateNextWrite()
	res, err := c.Call(addr, "mutate")
	if err != nil {
		t.Fatalf("call did not survive a torn write: %v", err)
	}
	if got, _ := res[0].AsU64(); got != 1 {
		t.Fatalf("handler result = %d, want 1", got)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times across the retry, want 1", n)
	}
}

// TestCallReplaysAcrossLostResponse: the service runs the call, then the
// connection is cut mid-response. The caller's retry carries the same
// stamp, so it gets the first run's result replayed and the handler does
// not run again.
func TestCallReplaysAcrossLostResponse(t *testing.T) {
	inj := faultnet.New()
	var runs atomic.Int32
	s := NewService("svc", nil, Config{})
	s.Handle("mutate", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		inj.CutAfter(10) // the response write is the connection's next I/O
		return []Payload{U64(uint64(runs.Add(1)))}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(inj.Listener(ln))
	t.Cleanup(func() { s.Close() })
	c := NewCaller(nil, Config{Net: live.NodeConfig{AttemptTimeout: time.Second}})
	defer c.Close()

	res, err := c.Call(ln.Addr().String(), "mutate")
	if err != nil {
		t.Fatalf("call did not survive a lost response: %v", err)
	}
	if got, _ := res[0].AsU64(); got != 1 {
		t.Fatalf("replayed result = %d, want 1", got)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times across the retry, want 1", n)
	}
}

func TestRefPayloadAtDMlessEndpoint(t *testing.T) {
	_, dmAddr := startDM(t, smallDM())
	cdm := dialDM(t, dmAddr)
	stager := NewCaller(cdm, Config{InlineThreshold: 16})
	defer stager.Close()
	arg, err := stager.Stage(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer stager.Release(arg)

	s := NewService("noDM", nil, Config{})
	s.Handle("touch", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		_, err := ctx.Fetch(args[0])
		return nil, err
	})
	addr := serveService(t, s)
	c := NewCaller(cdm, Config{})
	defer c.Close()
	if _, err := c.Call(addr, "touch", arg); err == nil {
		t.Fatal("DM-less service materialized a ref payload")
	}
}

// TestUnlocatedRefRefused: a ref argument in the unlocated wire form
// names no shard, so resolving it on a cluster backend could read
// another shard's pages. The envelope boundary refuses it in both
// directions: a service answers an error without running the handler or
// touching its DM session, and a caller refuses such a result.
func TestUnlocatedRefRefused(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		cfg := smallDM()
		cfg.HasShard, cfg.ShardID = true, uint32(i)
		_, addr := startDM(t, cfg)
		addrs = append(addrs, addr)
	}
	stager := dialPool(t, pool.Config{Shards: addrs})
	data := bytes.Repeat([]byte{7}, 4096)
	ref, err := stager.StageRef(data)
	if err != nil {
		t.Fatal(err)
	}
	defer stager.FreeRef(ref)
	unlocated := []dmwire.CallArg{{IsRef: true, Ref: ref}}

	// Heartbeats off, so any DM call the service makes shows in Calls.
	scfg := pool.Config{Shards: addrs}
	scfg.Client.HeartbeatInterval = -1
	svcDM := dialPool(t, scfg)
	var runs atomic.Int32
	s := NewService("sink", svcDM, Config{})
	s.Handle("read", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		runs.Add(1)
		_, err := ctx.Fetch(args[0])
		return nil, err
	})
	addr := serveService(t, s)

	node := live.NewNodeWith(live.NodeConfig{})
	defer node.Close()
	calls := svcDM.Stats().Calls
	env := dmwire.CallEnvelope{Method: "read", TraceID: 1, Args: unlocated}
	_, err = node.Call(addr, MethodCall, env.Marshal())
	if err == nil || !strings.Contains(err.Error(), errUnlocatedRef.Error()) {
		t.Fatalf("unlocated ref argument: %v, want the unlocated-ref refusal", err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("handler ran %d times on an unlocated ref", n)
	}
	if d := svcDM.Stats().Calls - calls; d != 0 {
		t.Fatalf("service session made %d DM calls on an unlocated ref, want 0", d)
	}

	// The result direction: a peer answering with an unlocated ref.
	peer := live.NewNodeWith(live.NodeConfig{})
	defer peer.Close()
	peer.Handle(MethodCall, func(net.Addr, []byte) ([]byte, error) {
		return dmwire.AppendReturn(nil, unlocated)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go peer.Serve(ln)
	c := NewCaller(dialDM(t, addrs[0]), Config{})
	defer c.Close()
	if _, err := c.Call(ln.Addr().String(), "read"); !errors.Is(err, errUnlocatedRef) {
		t.Fatalf("unlocated ref result: %v, want errUnlocatedRef", err)
	}
}

// TestOversizedResultListRefused: an envelope's argument count is one
// byte, capped at dmwire.MaxCallArgs. A result list past the cap is
// refused with an error status, never wrapped to a shorter list, and an
// argument list past it fails before it is sent.
func TestOversizedResultListRefused(t *testing.T) {
	s := NewService("wide", nil, Config{})
	s.Handle("many", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		n, err := args[0].AsU64()
		if err != nil {
			return nil, err
		}
		out := make([]Payload, n)
		for i := range out {
			out[i] = U64(uint64(i))
		}
		return out, nil
	})
	var counts atomic.Int32
	s.Handle("count", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		counts.Add(1)
		return []Payload{U64(uint64(len(args)))}, nil
	})
	addr := serveService(t, s)
	c := NewCaller(nil, Config{})
	defer c.Close()

	res, err := c.Call(addr, "many", U64(dmwire.MaxCallArgs))
	if err != nil || len(res) != dmwire.MaxCallArgs {
		t.Fatalf("%d results: got %d, %v", dmwire.MaxCallArgs, len(res), err)
	}
	for i, p := range res {
		if v, err := p.AsU64(); err != nil || v != uint64(i) {
			t.Fatalf("result %d = %d, %v", i, v, err)
		}
	}
	for _, n := range []uint64{dmwire.MaxCallArgs + 1, 256, 300} {
		res, err := c.Call(addr, "many", U64(n))
		if err == nil || !strings.Contains(err.Error(), dmwire.ErrTooManyArgs.Error()) {
			t.Fatalf("%d results: got %d results, err %v; want the MaxCallArgs refusal", n, len(res), err)
		}
	}

	args := make([]Payload, dmwire.MaxCallArgs+1)
	for i := range args {
		args[i] = U64(uint64(i))
	}
	if res, err := c.Call(addr, "count", args[:dmwire.MaxCallArgs]...); err != nil || len(res) != 1 {
		t.Fatalf("%d args: %v, %v", dmwire.MaxCallArgs, res, err)
	} else if v, _ := res[0].AsU64(); v != dmwire.MaxCallArgs {
		t.Fatalf("%d args arrived as %d", dmwire.MaxCallArgs, v)
	}
	if _, err := c.Call(addr, "count", args...); !errors.Is(err, dmwire.ErrTooManyArgs) {
		t.Fatalf("%d args: %v, want ErrTooManyArgs", len(args), err)
	}
	if n := counts.Load(); n != 1 {
		t.Fatalf("count ran %d times, want 1: an oversized argument list reached it", n)
	}
}
