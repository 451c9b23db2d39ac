package live

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/faultnet"
	"repro/internal/registry"
)

// TestConsumeRef pins consume_ref's contract on one server: the bytes
// come back, the frames go back on the free list, the epoch advances, a
// second consume finds nothing, and a range error frees nothing.
func TestConsumeRef(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	baseFree, baseLeases := srv.FreePages(), LeasedBufs()

	payload := bytes.Repeat([]byte("consume!"), 1500) // 12 000 B, 3 pages
	ref, err := cl.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Out of range: the ref claims a page more than was staged.
	oversize := ref
	oversize.Size += 4096
	if _, err := cl.ConsumeRefLease(oversize); !errors.Is(err, dm.ErrOutOfRange) {
		t.Fatalf("oversize consume: %v, want ErrOutOfRange", err)
	}
	if n := srv.LiveRefs(); n != 1 {
		t.Fatalf("LiveRefs after a refused consume = %d, want 1", n)
	}

	epoch := srv.Epoch()
	b, err := cl.ConsumeRefLease(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("consumed bytes differ from the staged payload")
	}
	b.Release()
	if srv.Epoch() <= epoch {
		t.Fatalf("epoch %d after consume, was %d: cached copies would not be dropped", srv.Epoch(), epoch)
	}
	if n, free := srv.LiveRefs(), srv.FreePages(); n != 0 || free != baseFree {
		t.Fatalf("after consume: LiveRefs %d, FreePages %d (want 0, %d)", n, free, baseFree)
	}
	if _, err := cl.ConsumeRefLease(ref); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("second consume: %v, want ErrBadRef", err)
	}
	if n := LeasedBufs(); n != baseLeases {
		t.Fatalf("LeasedBufs = %d, baseline %d", n, baseLeases)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConsumeRefRetiresDirectoryEntry: consuming a replica key tombstones
// its directory entry exactly as free_ref does, so a stale put cannot
// bring it back.
func TestConsumeRefRetiresDirectoryEntry(t *testing.T) {
	srv, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	key := dmwire.ReplicaKeyBit | 42
	ref, err := cl.StageRefAtAsync(key, []uint32{0, 1}, []byte("replicated")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, held := srv.Registry().Get(key); !held {
		t.Fatal("stage_at recorded no directory entry")
	}
	b, err := cl.ConsumeRefLease(ref)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if _, held := srv.Registry().Get(key); held {
		t.Fatal("directory entry survived consume_ref")
	}
	srv.Registry().Put(registry.Entry{Key: key, Size: ref.Size, Epoch: 1, Replicas: []uint32{0}})
	if _, held := srv.Registry().Get(key); held {
		t.Fatal("tombstoned entry resurrected by a stale put")
	}
}

// TestConsumeRefRaces races read_ref, consume_ref and free_ref on the
// same refs straight through the dispatcher: exactly one of each ref's
// consume and free wins it, a read or consume that succeeds returns the
// staged bytes, and the page manager's books balance afterwards.
func TestConsumeRefRaces(t *testing.T) {
	const refs, pages = 64, 512
	s := NewServer(ServerConfig{NumPages: pages, PageSize: 1024})
	defer s.Close()
	sess := registeredSession(t, s)
	payload := bytes.Repeat([]byte{0x5a}, 3000)
	keys := make([]uint64, refs)
	for i := range keys {
		status, resp := s.dispatch(sess, dmwire.MStage, dmwire.StageReq{Data: payload}.Marshal())
		if status != dmwire.StatusOK {
			t.Fatalf("stage: status %d %s", status, resp)
		}
		r, err := dmwire.UnmarshalRefKeyResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = r.Key
	}
	var wg sync.WaitGroup
	wins := make([][2]bool, refs) // consume won, free won
	for i, key := range keys {
		read := dmwire.ReadRefReq{Key: key, Size: uint32(len(payload))}.Append(nil)
		wg.Add(3)
		go func() {
			defer wg.Done()
			if status, resp := s.dispatch(sess, dmwire.MReadRef, read); status == dmwire.StatusOK && !bytes.Equal(resp, payload) {
				t.Errorf("ref %d: read returned wrong bytes", i)
			}
		}()
		go func() {
			defer wg.Done()
			status, resp := s.dispatch(sess, dmwire.MConsumeRef, read)
			if status == dmwire.StatusOK && !bytes.Equal(resp, payload) {
				t.Errorf("ref %d: consume returned wrong bytes", i)
			}
			wins[i][0] = status == dmwire.StatusOK
		}()
		go func() {
			defer wg.Done()
			status, _ := s.dispatch(sess, dmwire.MFreeRef, dmwire.FreeRefReq{Key: key}.Append(nil))
			wins[i][1] = status == dmwire.StatusOK
		}()
	}
	wg.Wait()
	for i, w := range wins {
		if w[0] == w[1] {
			t.Fatalf("ref %d: consume won %v, free won %v — want exactly one", i, w[0], w[1])
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, free := s.LiveRefs(), s.FreePages(); n != 0 || free != pages {
		t.Fatalf("LiveRefs %d, FreePages %d of %d", n, free, pages)
	}
}

// TestConsumeRefRetriesAcrossCut: a mid-frame cut drops consume_ref's
// response after the server ran it. The retry carries the same stamp, so
// the server replays the payload byte for byte instead of consuming
// again, and the ref is freed exactly once.
func TestConsumeRefRetriesAcrossCut(t *testing.T) {
	srv := NewServer(smallConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New()
	go srv.Serve(inj.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	ccfg := defaultClientConfig()
	ccfg.HeartbeatInterval = -1
	ccfg.Net.AttemptTimeout = time.Second
	cl, err := DialConfig(ccfg, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	baseFree, baseLeases := srv.FreePages(), LeasedBufs()

	payload := bytes.Repeat([]byte("retried!"), 1500) // 12 000 B, 3 pages
	ref, err := cl.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The server reads the whole request, then its response write is cut
	// 100 bytes in.
	req := dmwire.ReadRefReq{Key: ref.Key, Size: uint32(ref.Size)}.Append(nil)
	inj.CutAfter(int64(frameHeaderSize + stampSize + 2 + len(req) + 100))
	retries := cl.Stats().Retries
	b, err := cl.ConsumeRefLease(ref)
	if err != nil {
		t.Fatalf("consume did not survive a cut response: %v", err)
	}
	if cl.Stats().Retries == retries {
		t.Fatal("the consume was not retried: the cut missed its response")
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("the replayed payload differs from the staged one")
	}
	b.Release()
	if n, free := srv.LiveRefs(), srv.FreePages(); n != 0 || free != baseFree {
		t.Fatalf("after the retried consume: LiveRefs %d, FreePages %d (want 0, %d)", n, free, baseFree)
	}
	if _, err := cl.ConsumeRefLease(ref); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("second consume: %v, want ErrBadRef", err)
	}
	if n := LeasedBufs(); n != baseLeases {
		t.Fatalf("LeasedBufs = %d, baseline %d", n, baseLeases)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
