package liverpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/dm"
	"repro/internal/live"
	"repro/internal/pool"
)

func TestChainByRefAndByValueAgree(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	payload := make([]byte, 32*1024)
	apps.FillPayload(payload, 7)
	want := apps.Aggregate(payload)

	byRef := deployChain(t, 3, dmAddr, Config{InlineThreshold: 1024})
	got, err := byRef.Client.Do(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("by-ref chain sum = %d, want %d", got, want)
	}

	byVal := deployChain(t, 3, dmAddr, Config{ForceInline: true})
	got, err = byVal.Client.Do(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("by-value chain sum = %d, want %d", got, want)
	}

	// The by-ref run must leave nothing behind once Do released its ref.
	if n := srv.LiveRefs(); n != 0 {
		t.Fatalf("LiveRefs after chain runs = %d, want 0", n)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChainConsumesStagedRef: the terminal consumes the staged ref, so
// each Do costs the client's DM session one call (the stage, no free)
// and leaves no ref, frame or leased Buf behind.
func TestChainConsumesStagedRef(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	cfg := Config{InlineThreshold: 1024}
	d := deployChain(t, 3, dmAddr, cfg)
	sess := dialDM(t, dmAddr)
	cc := NewChainClient(sess, d.Addrs[0], cfg)
	defer cc.Close()
	baseFree, baseLeases := srv.FreePages(), live.LeasedBufs()
	payload := make([]byte, 32<<10)
	apps.FillPayload(payload, 3)
	want := apps.Aggregate(payload)
	const n = 8
	calls := sess.Stats().Calls
	for i := 0; i < n; i++ {
		got, err := cc.Do(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("chain sum = %d, want %d", got, want)
		}
	}
	if got := sess.Stats().Calls - calls; got != n {
		t.Fatalf("%d Dos made %d DM calls on the client session, want %d", n, got, n)
	}
	if refs, free := srv.LiveRefs(), srv.FreePages(); refs != 0 || free != baseFree {
		t.Fatalf("LiveRefs %d, FreePages %d (want 0, %d)", refs, free, baseFree)
	}
	if got := live.LeasedBufs(); got != baseLeases {
		t.Fatalf("LeasedBufs = %d, baseline %d", got, baseLeases)
	}
}

// TestChainFailureLeavesNothing: a chain whose terminal fails before or
// after consuming its argument leaves no ref and no frame behind — the
// client releases the staged ref on failure, and a release that finds
// it already consumed is harmless.
func TestChainFailureLeavesNothing(t *testing.T) {
	for _, consumed := range []bool{false, true} {
		t.Run(fmt.Sprintf("consumed=%v", consumed), func(t *testing.T) {
			srv, dmAddr := startDM(t, smallDM())
			baseFree := srv.FreePages()
			cfg := Config{InlineThreshold: 1024}
			term := NewService("term", dialDM(t, dmAddr), cfg)
			term.Handle(chainMethod, func(ctx *Ctx, args []Payload) ([]Payload, error) {
				if consumed {
					b, err := ctx.Consume(args[0])
					if err != nil {
						return nil, err
					}
					b.Release()
				}
				return nil, errors.New("terminal failed")
			})
			hop := newChainHop("hop", dialDM(t, dmAddr), serveService(t, term), cfg)
			cc := NewChainClient(dialDM(t, dmAddr), serveService(t, hop), cfg)
			defer cc.Close()
			if _, err := cc.Do(make([]byte, 32<<10)); err == nil {
				t.Fatal("Do succeeded through a failing terminal")
			}
			if refs, free := srv.LiveRefs(), srv.FreePages(); refs != 0 || free != baseFree {
				t.Fatalf("LiveRefs %d, FreePages %d (want 0, %d)", refs, free, baseFree)
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSocialNetComposeAndRead(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	dep := deploySocialNet(t, dmAddr, Config{InlineThreshold: 256})

	cdm := dialDM(t, dmAddr)
	cl := NewSocialNetClient(cdm, dep.Frontend, Config{InlineThreshold: 256})
	defer cl.Close()

	// Mix of small (inline) and large (by-ref) media.
	sizes := []int{64, 4096, 128, 8192}
	media := make([][]byte, len(sizes))
	for i, sz := range sizes {
		media[i] = make([]byte, sz)
		apps.FillMedia(media[i], uint64(i))
		id, err := cl.Compose(media[i])
		if err != nil {
			t.Fatalf("compose %d: %v", i, err)
		}
		if id != uint64(i) {
			t.Fatalf("compose %d returned id %d", i, id)
		}
	}

	got, err := cl.ReadHome(0, uint16(len(sizes)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sizes) {
		t.Fatalf("ReadHome returned %d posts, want %d", len(got), len(sizes))
	}
	for i, buf := range got {
		if !bytes.Equal(buf, media[i]) {
			t.Fatalf("post %d media mismatch (len %d vs %d)", i, len(buf), len(media[i]))
		}
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestComposeMakesTwoDMCalls: a by-ref compose costs the whole
// deployment two DM calls — the composer's stage and storage's adopt —
// and leaves exactly storage's ref per post.
func TestComposeMakesTwoDMCalls(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	cfg := Config{InlineThreshold: 256}
	var sess []*pool.Client
	dep, err := DeploySocialNetWith(func() (DM, error) {
		p, err := newSession(pool.Config{Shards: []string{dmAddr}})
		if err == nil {
			sess = append(sess, p)
		}
		return p, err
	}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	cdm := dialDM(t, dmAddr)
	sess = append(sess, cdm)
	cl := NewSocialNetClient(cdm, dep.Frontend, cfg)
	defer cl.Close()
	calls := func() (n int64) {
		for _, p := range sess {
			n += p.Stats().Calls
		}
		return n
	}
	media := make([]byte, 8<<10)
	apps.FillMedia(media, 5)
	const n = 8
	before := calls()
	for i := 0; i < n; i++ {
		if _, err := cl.Compose(media); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls() - before; got != 2*n {
		t.Fatalf("%d composes made %d DM calls across the deployment, want %d", n, got, 2*n)
	}
	if refs := srv.LiveRefs(); refs != n {
		t.Fatalf("LiveRefs after %d composes = %d, want %d (storage's)", n, refs, n)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestComposeFailureAfterAdopt: a hop fails after storage adopted the
// media. The composer sees the failure and releases its staged ref,
// which finds the key dead and is harmless; storage's ref is the only
// one left and the post reads back.
func TestComposeFailureAfterAdopt(t *testing.T) {
	srv, dmAddr := startDM(t, smallDM())
	cfg := Config{InlineThreshold: 256}
	storage := serveService(t, newSNStorage(dialDM(t, dmAddr), cfg))
	front := NewService("front", dialDM(t, dmAddr), cfg)
	front.Handle(snCompose, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		if _, err := ctx.Call(storage, snStore, args...); err != nil {
			return nil, err
		}
		return nil, errors.New("front failed after the store")
	})
	front.Handle(snRead, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(storage, snFetch, args...)
	})
	cl := NewSocialNetClient(dialDM(t, dmAddr), serveService(t, front), cfg)
	defer cl.Close()
	baseLeases := live.LeasedBufs()

	media := make([]byte, 8<<10)
	apps.FillMedia(media, 9)
	if _, err := cl.Compose(media); err == nil {
		t.Fatal("compose succeeded through a failing hop")
	}
	if n := srv.LiveRefs(); n != 1 {
		t.Fatalf("LiveRefs after the failed compose = %d, want 1 (storage's)", n)
	}
	got, err := cl.ReadHome(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], media) {
		t.Fatalf("post after the failed compose: %d posts", len(got))
	}
	if n := live.LeasedBufs(); n != baseLeases {
		t.Fatalf("LeasedBufs = %d, baseline %d", n, baseLeases)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSocialNetAdoptSurvivesComposerCrash is the ownership-handoff proof,
// at one copy and at two: storage adopts composed media under its own
// DM session, so every copy sits under the new key, the composer's key
// is dead on every shard, the post remains readable after the composing
// client dies without cleanup and the lease reaper collects its session,
// and the copies go only when storage's own session is reaped.
func TestSocialNetAdoptSurvivesComposerCrash(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) { testAdoptSurvivesComposerCrash(t, r) })
	}
}

func testAdoptSurvivesComposerCrash(t *testing.T, r int) {
	ttl := 100 * time.Millisecond
	srvs := make([]*live.Server, r)
	addrs := make([]string, r)
	baseFree := make([]int, r)
	for i := range srvs {
		srvs[i], addrs[i] = startDM(t, live.ServerConfig{
			NumPages: 256, PageSize: 4096,
			LeaseTTL: ttl, DrainTimeout: 100 * time.Millisecond,
		})
		baseFree[i] = srvs[i].FreePages()
	}
	// waitRefs polls until every shard holds want refs.
	waitRefs := func(want int, deadline time.Time) {
		t.Helper()
		for {
			ok := true
			for _, srv := range srvs {
				ok = ok && srv.LiveRefs() == want
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				for i, srv := range srvs {
					t.Errorf("shard %d: LiveRefs %d, want %d", i, srv.LiveRefs(), want)
				}
				t.FailNow()
			}
			time.Sleep(ttl / 4)
		}
	}
	cfg := Config{InlineThreshold: 256}
	pcfg := pool.Config{Shards: addrs, ReplicaFactor: r}
	dep, err := DeploySocialNetWith(func() (DM, error) { return newSession(pcfg) }, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depOpen := true
	defer func() {
		if depOpen {
			dep.Close()
		}
	}()

	// Composer with heartbeats disabled: once it stops calling, its lease
	// silently expires — a crash as far as the servers can tell.
	ccfg := pcfg
	ccfg.Client.HeartbeatInterval = -1
	cdm, err := newSession(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	composer := NewCaller(cdm, cfg)
	media := make([]byte, 16*1024) // well above the threshold: travels by ref
	apps.FillMedia(media, 42)
	arg, err := composer.Stage(media)
	if err != nil {
		t.Fatal(err)
	}
	if !arg.IsRef() {
		t.Fatal("media did not stage by ref")
	}
	// A second staged ref the composer never hands off: its sweep is
	// how the test sees the composer's reap happen.
	if _, err := composer.Stage(media); err != nil {
		t.Fatal(err)
	}
	if _, err := composer.Call(dep.Frontend, snCompose, arg); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the transport without releasing anything.
	composer.Close()
	cdm.Close()
	deadline := time.Now().Add(20 * ttl)
	waitRefs(1, deadline)

	reader := dialPool(t, pcfg)
	rc := NewCaller(reader, cfg)
	defer rc.Close()
	var res []Payload
	for {
		res, err = rc.Call(dep.Frontend, snRead, snParams(0, 1))
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(ttl / 4)
	}
	if err != nil {
		t.Fatalf("read after composer crash: %v", err)
	}
	if len(res) != 1 || !res[0].IsRef() {
		t.Fatalf("timeline page %v, want one ref post", res)
	}
	own := res[0].Ref()
	if own.Key == arg.Ref().Key {
		t.Fatal("storage kept the composer's key")
	}
	got, err := rc.Fetch(res[0])
	if err != nil || !bytes.Equal(got, media) {
		t.Fatalf("post after composer reap: %v", err)
	}
	// Every copy is under the new key; the composer's key is dead on
	// every shard.
	for i, addr := range addrs {
		shard, err := live.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer shard.Close()
		if err := shard.Register(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(media))
		if err := shard.ReadRef(own, 0, buf); err != nil || !bytes.Equal(buf, media) {
			t.Fatalf("shard %d: copy under the new key: %v", i, err)
		}
		if err := shard.ReadRef(arg.Ref(), 0, buf); !errors.Is(err, dm.ErrBadRef) {
			t.Fatalf("shard %d: composer's key answered %v, want ErrBadRef", i, err)
		}
	}
	// The copies are storage's: reaping the deployment's sessions frees
	// them, and every frame comes home.
	dep.Close()
	depOpen = false
	waitRefs(0, time.Now().Add(20*ttl))
	for i, srv := range srvs {
		if free := srv.FreePages(); free != baseFree[i] {
			t.Fatalf("shard %d: FreePages %d after storage's reap, want %d", i, free, baseFree[i])
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}
