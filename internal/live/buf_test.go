package live

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/rpc"
)

// TestBufLifecycle covers the refcount contract: one hold per lease,
// Retain for hand-offs, the final Release recycling and invalidating the
// buffer, and the package leak gauge tracking every mint and release.
func TestBufLifecycle(t *testing.T) {
	base := LeasedBufs()

	raw := getBuf(5)
	copy(raw, "hello")
	b := newLeasedBuf(raw, raw)
	if got := LeasedBufs(); got != base+1 {
		t.Fatalf("gauge after mint = %d, want %d", got, base+1)
	}
	if string(b.Bytes()) != "hello" || b.Len() != 5 {
		t.Fatalf("Bytes/Len = %q/%d", b.Bytes(), b.Len())
	}
	b.Retain()
	b.Release() // drops the retained hold; still leased
	if got := LeasedBufs(); got != base+1 {
		t.Fatalf("gauge after partial release = %d, want %d", got, base+1)
	}
	if string(b.Bytes()) != "hello" {
		t.Fatal("payload invalidated before the final release")
	}
	b.Release() // final: recycles and invalidates
	if got := LeasedBufs(); got != base {
		t.Fatalf("gauge after final release = %d, want %d", got, base)
	}

	// Foreign memory: WrapBuf releases without touching the frame pool,
	// and the wrapped bytes alias the caller's slice (no copy).
	src := []byte("alias")
	w := WrapBuf(src)
	src[0] = 'A'
	if string(w.Bytes()) != "Alias" {
		t.Fatalf("WrapBuf copied instead of aliasing: %q", w.Bytes())
	}
	w.Release()
	if got := LeasedBufs(); got != base {
		t.Fatalf("gauge after WrapBuf release = %d, want %d", got, base)
	}
}

// TestBufDoubleReleasePanics: releasing more holds than were taken is a
// use-after-free in waiting and must fail loudly.
func TestBufDoubleReleasePanics(t *testing.T) {
	b := WrapBuf([]byte("x"))
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

// TestReadLeasePaths is the zero-copy happy path: readLease and
// ReadRefLease deliver the staged bytes without a caller-side copy, the
// lease gauge tracks the outstanding buffer, and Release balances it.
func TestReadLeasePaths(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	base := LeasedBufs()

	payload := bytes.Repeat([]byte("zeta"), 1024) // 4 KiB
	ref, err := cl.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.ReadRefLease(ref, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := LeasedBufs(); got != base+1 {
		t.Fatalf("gauge with lease held = %d, want %d", got, base+1)
	}
	if !bytes.Equal(b.Bytes(), payload[8:72]) {
		t.Fatalf("ReadRefLease window mismatch: %q", b.Bytes()[:8])
	}
	b.Release()

	ra, err := cl.Alloc(int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(ra, payload); err != nil {
		t.Fatal(err)
	}
	lb, err := cl.readLease(ra, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), payload) {
		t.Fatal("readLease payload mismatch")
	}
	lb.Release()
	if got := LeasedBufs(); got != base {
		t.Fatalf("gauge after releases = %d, want %d", got, base)
	}
}

// TestWireRangeValidation: offsets or sizes past the wire's uint32 fields
// must be rejected with dm.ErrOutOfRange before anything is marshalled —
// the silent-truncation bug the typed check replaces would have read the
// wrong window instead.
func TestWireRangeValidation(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	ref, err := cl.StageRef(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	over := int64(1) << 32
	if err := cl.ReadRef(ref, over, make([]byte, 8)); !errors.Is(err, dm.ErrOutOfRange) {
		t.Fatalf("ReadRef(off=2^32) = %v, want dm.ErrOutOfRange", err)
	}
	if _, err := cl.ReadRefLease(ref, over, 8); !errors.Is(err, dm.ErrOutOfRange) {
		t.Fatalf("ReadRefLease(off=2^32) = %v, want dm.ErrOutOfRange", err)
	}
	if _, err := cl.ReadRefLease(ref, 0, over); !errors.Is(err, dm.ErrOutOfRange) {
		t.Fatalf("ReadRefLease(size=2^32) = %v, want dm.ErrOutOfRange", err)
	}
}

// TestLeaseNotLeakedOnDeadline: a zero-copy read killed by its deadline
// must leave the lease gauge at its baseline even when the response
// frame arrives late — the transport, not the application, owns a frame
// whose call already failed, and must recycle it instead of minting a
// lease nobody will release.
func TestLeaseNotLeakedOnDeadline(t *testing.T) {
	srv := NewNode()
	srv.Handle(rpc.Method(0x0502), func(net.Addr, []byte) ([]byte, error) {
		time.Sleep(500 * time.Millisecond) // past the caller's whole budget
		return make([]byte, 4096), nil
	})
	addr := startNode(t, srv)

	ccfg := DefaultNodeConfig()
	ccfg.CallTimeout = 200 * time.Millisecond
	ccfg.AttemptTimeout = 100 * time.Millisecond
	ccfg.MaxRetries = -1 // the deadline kill must surface, not retry away
	n := NewNodeWith(ccfg)
	defer n.Close()
	base := LeasedBufs()

	err := n.callConsumer(addr, rpc.Method(0x0502), nil, nil, consumer{
		own: func(frame, body []byte) error {
			newLeasedBuf(frame, body) // deliberately never released
			return nil
		},
	}, 0)
	if err == nil {
		t.Fatal("call against the slow handler beat its deadline")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline kill = %v, want ErrDeadline", err)
	}
	if got := LeasedBufs(); got != base {
		t.Fatalf("a failed call minted a lease: gauge = %d, want %d", got, base)
	}

	// The response lands ~300ms after the call died; the read loop finds
	// no pending entry and must recycle the frame, never invoking own.
	time.Sleep(600 * time.Millisecond)
	if got := LeasedBufs(); got != base {
		t.Fatalf("late response leaked a lease: gauge = %d, want %d", got, base)
	}
}

// TestLeaseNotLeakedOnMidFrameCut tears the connection inside the
// request frame; whether the idempotent read retries to success or
// fails, no leased buffer may be stranded.
func TestLeaseNotLeakedOnMidFrameCut(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	inj := faultnet.New()
	ccfg := defaultClientConfig()
	ccfg.HeartbeatInterval = -1
	ccfg.Net.Dialer = injectedDialer(inj)
	ccfg.Net.AttemptTimeout = time.Second
	cl, err := DialConfig(ccfg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.StageRef(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	base := LeasedBufs()

	inj.CutAfter(7) // tear the next request inside its header
	b, err := cl.ReadRefLease(ref, 0, 4096)
	if err == nil {
		// The idempotent read retried across the cut; the lease is real.
		if b.Len() != 4096 {
			t.Fatalf("retried lease length = %d, want 4096", b.Len())
		}
		b.Release()
	}
	deadline := time.Now().Add(5 * time.Second)
	for LeasedBufs() != base {
		if time.Now().After(deadline) {
			t.Fatalf("leaked leases after mid-frame cut: %d", LeasedBufs()-base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
