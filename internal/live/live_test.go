package live

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/dm"
)

// startServer runs a live server on a loopback listener and returns its
// address plus a cleanup function.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func smallConfig() ServerConfig { return ServerConfig{NumPages: 128, PageSize: 4096} }

func TestAllocWriteReadRoundTrip(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	a, err := cl.Alloc(10000)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("live-dmrpc"), 1000)
	if err := cl.Write(a, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := cl.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip corrupted")
	}
	if err := cl.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestShareAndCoWAcrossClients(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	producer := dialClient(t, addr)
	consumer := dialClient(t, addr)

	a, err := producer.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Write(a, []byte("original")); err != nil {
		t.Fatal(err)
	}
	ref, err := producer.CreateRef(a, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// Ref travels by value between processes.
	ref2, err := dm.UnmarshalRef(ref.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := consumer.MapRef(ref2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := consumer.Read(mapped, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("consumer read %q", got)
	}
	// Consumer write CoWs; producer view unchanged.
	if err := consumer.Write(mapped, []byte("CLOBBER!")); err != nil {
		t.Fatal(err)
	}
	if err := producer.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("producer sees %q after consumer write", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFullLifecycleNoLeak(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	c1 := dialClient(t, addr)
	c2 := dialClient(t, addr)
	start := srv.FreePages()

	a, err := c1.Alloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(a, make([]byte, 3*4096)); err != nil {
		t.Fatal(err)
	}
	ref, err := c1.CreateRef(a, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := c2.MapRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(mapped, []byte("cow")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := c2.Free(mapped); err != nil {
		t.Fatal(err)
	}
	if err := c1.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	if got := srv.FreePages(); got != start {
		t.Fatalf("page leak: %d free, started %d", got, start)
	}
	if srv.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d", srv.LiveRefs())
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStageAndReadRef(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	data := bytes.Repeat([]byte("stage"), 4000)
	ref, err := cl.StageRef(data)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Size != int64(len(data)) {
		t.Fatalf("ref.Size = %d", ref.Size)
	}
	got := make([]byte, 100)
	if err := cl.ReadRef(ref, 5000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5000:5100]) {
		t.Fatal("readref window corrupted")
	}
	whole := make([]byte, len(data))
	if err := cl.ReadRef(ref, 0, whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, data) {
		t.Fatal("full readref corrupted")
	}
	if err := cl.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
}

// refFrames returns the frames the server holds for a ref key.
func refFrames(t *testing.T, srv *Server, key uint64) []int32 {
	t.Helper()
	sh := srv.refShardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[key]
	if !ok {
		t.Fatalf("no ref %d on the server", key)
	}
	return append([]int32(nil), e.frames...)
}

// A stage right after a free gets the frames just freed, in the order they
// were freed, so it writes into memory that is still warm in cache.
func TestFreedFramesReusedFirst(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	data := make([]byte, 8*4096)
	first, err := cl.StageRef(data)
	if err != nil {
		t.Fatal(err)
	}
	freed := refFrames(t, srv, first.Key)
	if err := cl.FreeRef(first); err != nil {
		t.Fatal(err)
	}
	second, err := cl.StageRef(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := refFrames(t, srv, second.Key); !slices.Equal(got, freed) {
		t.Fatalf("second stage got frames %v, want the freed %v", got, freed)
	}
}

// A reused frame is zeroed past its new payload: nothing of the ref that
// freed it can be read through the whole page.
func TestReusedFrameTailZeroed(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	full, err := cl.StageRef(bytes.Repeat([]byte{0xAB}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	frame := refFrames(t, srv, full.Key)[0]
	if err := cl.FreeRef(full); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5C}, 100)
	short, err := cl.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := refFrames(t, srv, short.Key)[0]; got != frame {
		t.Fatalf("short ref got frame %d, want the freed %d", got, frame)
	}
	a, err := cl.MapRef(short)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	if err := cl.Read(a, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:len(payload)], payload) {
		t.Fatal("payload corrupted")
	}
	for i := len(payload); i < len(page); i++ {
		if page[i] != 0 {
			t.Fatalf("byte %d past the payload reads %#x, want 0", i, page[i])
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	if err := cl.Free(dm.RemoteAddr(0x999000)); !errors.Is(err, dm.ErrBadAddress) {
		t.Errorf("Free bad addr: %v", err)
	}
	if _, err := cl.MapRef(dm.Ref{Server: 0, Key: 77, Size: 1}); !errors.Is(err, dm.ErrBadRef) {
		t.Errorf("MapRef unknown: %v", err)
	}
	a, _ := cl.Alloc(100)
	if err := cl.Read(a, make([]byte, 8192)); !errors.Is(err, dm.ErrOutOfRange) {
		t.Errorf("Read out of range: %v", err)
	}
	if _, err := cl.CreateRef(a, 0); !errors.Is(err, dm.ErrOutOfRange) {
		t.Errorf("CreateRef zero size: %v", err)
	}
	if _, err := cl.StageRef(nil); !errors.Is(err, dm.ErrOutOfRange) {
		t.Errorf("StageRef empty: %v", err)
	}
}

func TestUnregisteredClientRejected(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Alloc(100); err == nil {
		t.Fatal("Alloc before Register succeeded")
	}
}

func TestOutOfMemory(t *testing.T) {
	_, addr := startServer(t, ServerConfig{NumPages: 2, PageSize: 4096})
	cl := dialClient(t, addr)
	a, err := cl.Alloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(a, make([]byte, 3*4096)); !errors.Is(err, dm.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{NumPages: 4096, PageSize: 4096})
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Register(); err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				size := int64(rng.Intn(3*4096) + 1)
				a, err := cl.Alloc(size)
				if err != nil {
					errs <- err
					return
				}
				buf := make([]byte, size)
				rng.Read(buf)
				if err := cl.Write(a, buf); err != nil {
					errs <- err
					return
				}
				got := make([]byte, size)
				if err := cl.Read(a, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- errors.New("concurrent read mismatch")
					return
				}
				ref, err := cl.CreateRef(a, size)
				if err != nil {
					errs <- err
					return
				}
				if err := cl.Free(a); err != nil {
					errs <- err
					return
				}
				if err := cl.FreeRef(ref); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := srv.FreePages(); got != 4096 {
		t.Fatalf("pages leaked under concurrency: %d free", got)
	}
}

func TestConcurrentCallsOnOneClient(t *testing.T) {
	_, addr := startServer(t, ServerConfig{NumPages: 4096, PageSize: 4096})
	cl := dialClient(t, addr)
	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i)}, 5000)
			ref, err := cl.StageRef(data)
			if err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := cl.ReadRef(ref, 0, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("multiplexed call cross-talk")
				return
			}
			errs <- cl.FreeRef(ref)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLazyAllocation(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	start := srv.FreePages()
	if _, err := cl.Alloc(16 * 4096); err != nil {
		t.Fatal(err)
	}
	if srv.FreePages() != start {
		t.Fatal("alloc consumed pages before first write")
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	a, _ := cl.Alloc(4096)
	got := []byte{0xFF, 0xFF}
	if err := cl.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("unwritten read %v", got)
	}
}

func TestStaleFrameRejected(t *testing.T) {
	// A raw connection sending garbage must not wedge the server.
	srv, addr := startServer(t, smallConfig())
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	nc.Close()
	// Server must still serve a well-behaved client afterwards.
	cl := dialClient(t, addr)
	if _, err := cl.Alloc(100); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestServerConfigValidate(t *testing.T) {
	if err := DefaultServerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ServerConfig{NumPages: 0, PageSize: 4096}).Validate(); err == nil {
		t.Fatal("zero pages accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer with bad config did not panic")
		}
	}()
	NewServer(ServerConfig{})
}
