package live

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/dmwire"
)

// callerSessionOf returns srv's record of cl's current session.
func callerSessionOf(srv *Server, cl *Client) *serverSession {
	return srv.node.sessions.get(cl.node.sess.Load().id)
}

// reapNow marks cl's session idle since long ago and runs the sweep, so
// it reaps that session and no other in use within the lease.
func reapNow(t *testing.T, srv *Server, cl *Client) {
	t.Helper()
	sess := callerSessionOf(srv, cl)
	sess.mu.Lock()
	sess.seenUses, sess.activeAt = sess.uses, time.Time{} // long idle
	sess.mu.Unlock()
	srv.node.sessions.sweep(time.Now())
	d := sess.dm.Load()
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !sess.gone.Load() || !d.gone {
		t.Fatal("the sweep did not reap a session idle past its lease")
	}
}

// registeredSession returns a caller session of srv with DM state
// attached, as a register over the wire leaves it.
func registeredSession(t testing.TB, srv *Server) *serverSession {
	t.Helper()
	sess := srv.node.sessions.get(rand.Uint64() | 1)
	if status, resp := srv.dispatch(sess, dmwire.MRegister, nil); status != dmwire.StatusOK {
		t.Fatalf("register: status %d %s", status, resp)
	}
	return sess
}

// TestAdoptRef pins adopt_ref's contract on one server: the ref moves to
// a new key owned by the adopter without a frame moving, the old key is
// dead to every op, the ref survives its producer's reap and dies with
// its adopter's, and the epoch advances.
func TestAdoptRef(t *testing.T) {
	cfg := smallConfig()
	cfg.LeaseTTL = time.Hour // the test expires leases by hand
	srv, addr := startServer(t, cfg)
	producer, adopter := dialClient(t, addr), dialClient(t, addr)
	baseFree, baseLeases := srv.FreePages(), LeasedBufs()

	payload := bytes.Repeat([]byte("adopted!"), 1500) // 12 000 B, 3 pages
	ref, err := producer.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	staged, epoch := srv.FreePages(), srv.Epoch()
	own, err := adopter.AdoptRef(ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if own.Key == ref.Key || own.Size != ref.Size {
		t.Fatalf("adopted ref %+v from %+v", own, ref)
	}
	if free := srv.FreePages(); free != staged {
		t.Fatalf("adopt moved frames: FreePages %d, want %d", free, staged)
	}
	if srv.Epoch() <= epoch {
		t.Fatalf("epoch %d after adopt, was %d: cached copies of the old key would survive", srv.Epoch(), epoch)
	}
	b, err := adopter.ReadRefLease(own, 0, own.Size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("bytes under the new key differ from the staged payload")
	}
	b.Release()

	if err := producer.ReadRef(ref, 0, make([]byte, 8)); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("read of the old key: %v, want ErrBadRef", err)
	}
	if _, err := producer.ConsumeRefLease(ref); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("consume of the old key: %v, want ErrBadRef", err)
	}
	if err := producer.FreeRef(ref); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("free of the old key: %v, want ErrBadRef", err)
	}
	if _, err := adopter.AdoptRef(ref, 0, nil); !errors.Is(err, dm.ErrBadRef) {
		t.Fatalf("second adopt of the old key: %v, want ErrBadRef", err)
	}

	reapNow(t, srv, producer)
	if n := srv.LiveRefs(); n != 1 {
		t.Fatalf("LiveRefs after the producer's reap = %d, want 1", n)
	}
	got := make([]byte, len(payload))
	if err := adopter.ReadRef(own, 0, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after the producer's reap: %v", err)
	}
	reapNow(t, srv, adopter)
	if n, free := srv.LiveRefs(), srv.FreePages(); n != 0 || free != baseFree {
		t.Fatalf("after the adopter's reap: LiveRefs %d, FreePages %d (want 0, %d)", n, free, baseFree)
	}
	if n := LeasedBufs(); n != baseLeases {
		t.Fatalf("LeasedBufs = %d, baseline %d", n, baseLeases)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptRefDirectoryEntries: adopting a replica key retires the old
// key's directory entry and, given replicas, records the new key's
// epoch-1 entry with the move, so the adopted ref is registry-owned and
// survives its adopter's reap. An adopt onto a live key or outside the
// replica key space moves nothing.
func TestAdoptRefDirectoryEntries(t *testing.T) {
	cfg := smallConfig()
	cfg.LeaseTTL = time.Hour
	srv, addr := startServer(t, cfg)
	producer, adopter := dialClient(t, addr), dialClient(t, addr)
	oldKey, newKey, taken := dmwire.ReplicaKeyBit|61, dmwire.ReplicaKeyBit|62, dmwire.ReplicaKeyBit|63
	ref, err := producer.StageRefAtAsync(oldKey, []uint32{0, 1}, []byte("registry-owned")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := producer.StageRefAt(taken, []byte("in the way")); err != nil {
		t.Fatal(err)
	}
	if _, err := adopter.AdoptRef(ref, taken, nil); !errors.Is(err, dm.ErrRefExists) {
		t.Fatalf("adopt onto a live key: %v, want ErrRefExists", err)
	}
	if _, err := adopter.AdoptRef(ref, 5, nil); err == nil {
		t.Fatal("adopt onto a counter-space key succeeded")
	}
	if _, err := adopter.AdoptRef(ref, 0, []uint32{0}); err == nil {
		t.Fatal("adopt recording a directory entry for a server-minted key succeeded")
	}
	own, err := adopter.AdoptRef(ref, newKey, []uint32{0, 1})
	if err != nil || own.Key != newKey {
		t.Fatalf("adopt: %+v, %v", own, err)
	}
	if _, held := srv.Registry().Get(oldKey); held {
		t.Fatal("the old key's directory entry survived the adopt")
	}
	if ent, held := srv.Registry().Get(newKey); !held || ent.Epoch != 1 || ent.Size != ref.Size {
		t.Fatalf("new key's directory entry %+v (held %v), want epoch 1 size %d", ent, held, ref.Size)
	}
	reapNow(t, srv, adopter)
	if err := producer.ReadRef(own, 0, make([]byte, own.Size)); err != nil {
		t.Fatalf("registry-owned adopted ref after the adopter's reap: %v", err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptRefRaces races read_ref, adopt_ref, consume_ref and free_ref
// on the same refs straight through the dispatcher: exactly one of each
// ref's adopt, consume and free wins it, and once the adopted refs are
// freed every frame is back on the free list with the books balanced.
func TestAdoptRefRaces(t *testing.T) {
	const refs, pages = 64, 512
	s := NewServer(ServerConfig{NumPages: pages, PageSize: 1024})
	defer s.Close()
	sess := registeredSession(t, s)
	payload := bytes.Repeat([]byte{0xa5}, 3000)
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
	wins := make([][3]bool, refs) // adopt, consume, free
	adopted := make([]uint64, refs)
	for i, key := range keys {
		read := dmwire.ReadRefReq{Key: key, Size: uint32(len(payload))}.Append(nil)
		wg.Add(4)
		go func() {
			defer wg.Done()
			if status, resp := s.dispatch(sess, dmwire.MReadRef, read); status == dmwire.StatusOK && !bytes.Equal(resp, payload) {
				t.Errorf("ref %d: read returned wrong bytes", i)
			}
		}()
		go func() {
			defer wg.Done()
			status, resp := s.dispatch(sess, dmwire.MAdoptRef, dmwire.AdoptRefReq{Key: key}.Append(nil))
			if wins[i][0] = status == dmwire.StatusOK; wins[i][0] {
				r, err := dmwire.UnmarshalRefKeyResp(resp)
				if err != nil {
					t.Errorf("ref %d: adopt response: %v", i, err)
				}
				adopted[i] = r.Key
			}
		}()
		go func() {
			defer wg.Done()
			status, resp := s.dispatch(sess, dmwire.MConsumeRef, read)
			if status == dmwire.StatusOK && !bytes.Equal(resp, payload) {
				t.Errorf("ref %d: consume returned wrong bytes", i)
			}
			wins[i][1] = status == dmwire.StatusOK
		}()
		go func() {
			defer wg.Done()
			status, _ := s.dispatch(sess, dmwire.MFreeRef, dmwire.FreeRefReq{Key: key}.Append(nil))
			wins[i][2] = status == dmwire.StatusOK
		}()
	}
	wg.Wait()
	for i, w := range wins {
		n := 0
		for _, won := range w {
			if won {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("ref %d: adopt, consume, free won %v — want exactly one", i, w)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, key := range adopted {
		if !wins[i][0] {
			continue
		}
		if status, _ := s.dispatch(sess, dmwire.MReadRef, dmwire.ReadRefReq{Key: keys[i], Size: 1}.Append(nil)); status != dmwire.StatusOf(dm.ErrBadRef) {
			t.Fatalf("ref %d: old key read answered status %d after adopt", i, status)
		}
		if status, resp := s.dispatch(sess, dmwire.MFreeRef, dmwire.FreeRefReq{Key: key}.Append(nil)); status != dmwire.StatusOK {
			t.Fatalf("ref %d: free of adopted key: status %d %s", i, status, resp)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, free := s.LiveRefs(), s.FreePages(); n != 0 || free != pages {
		t.Fatalf("LiveRefs %d, FreePages %d of %d", n, free, pages)
	}
}
