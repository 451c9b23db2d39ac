package liverpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
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
			term.Handle(ChainMethod, func(ctx *Ctx, args []Payload) ([]Payload, error) {
				if consumed {
					b, err := ctx.Consume(args[0])
					if err != nil {
						return nil, err
					}
					b.Release()
				}
				return nil, errors.New("terminal failed")
			})
			hop := NewChainHop("hop", dialDM(t, dmAddr), serveService(t, term), cfg)
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

// TestSocialNetAdoptSurvivesComposerCrash is the ownership-handoff proof:
// storage adopts composed media under its own DM session, so a post
// remains readable after the composing client dies without cleanup and
// the lease reaper collects its session.
func TestSocialNetAdoptSurvivesComposerCrash(t *testing.T) {
	ttl := 100 * time.Millisecond
	srv, dmAddr := startDM(t, live.ServerConfig{
		NumPages: 256, PageSize: 4096,
		LeaseTTL: ttl, DrainTimeout: 100 * time.Millisecond,
	})
	dep := deploySocialNet(t, dmAddr, Config{InlineThreshold: 256})

	// Composer with heartbeats disabled: once it stops calling, its lease
	// silently expires — a crash as far as the server can tell.
	pcfg := pool.Config{Shards: []string{dmAddr}}
	pcfg.Client.HeartbeatInterval = -1
	cdm, err := newSession(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	composer := NewCaller(cdm, Config{InlineThreshold: 256})

	media := make([]byte, 16*1024) // well above the threshold: travels by ref
	apps.FillMedia(media, 42)
	arg, err := composer.Stage(media)
	if err != nil {
		t.Fatal(err)
	}
	if !arg.IsRef() {
		t.Fatal("media did not stage by ref")
	}
	if _, err := composer.Call(dep.Frontend, SNCompose, arg); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the transport without releasing the staged ref. The
	// composer's own hold dies with its lease; storage's adopted hold on
	// the same frames must not.
	composer.Close()
	cdm.Close()

	// Wait for the reaper to collect the composer's session: its staged
	// ref disappears, leaving exactly storage's adopted ref live.
	deadline := time.Now().Add(20 * ttl)
	for time.Now().Before(deadline) {
		if srv.LiveRefs() == 1 {
			break
		}
		time.Sleep(ttl / 4)
	}
	if n := srv.LiveRefs(); n != 1 {
		t.Fatalf("LiveRefs after composer reap = %d, want 1 (storage's adopted ref)", n)
	}

	rdm := dialDM(t, dmAddr)
	reader := NewSocialNetClient(rdm, dep.Frontend, Config{InlineThreshold: 256})
	defer reader.Close()
	var got [][]byte
	for time.Now().Before(deadline) {
		got, err = reader.ReadHome(0, 1)
		if err == nil {
			break
		}
		time.Sleep(ttl / 4)
	}
	if err != nil {
		t.Fatalf("read after composer crash: %v", err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], media) {
		t.Fatalf("post corrupted after composer reap: got %d posts", len(got))
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
