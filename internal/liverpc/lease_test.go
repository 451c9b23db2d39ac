package liverpc

import (
	"bytes"
	"testing"

	"repro/internal/dm"
	"repro/internal/live"
)

// copyOnlyDM wraps a DM backend and hides its ReadRefLease method, so
// FetchLease must take the copying-bridge path.
type copyOnlyDM struct {
	inner DM
}

func (c copyOnlyDM) StageRef(data []byte) (dm.Ref, error)        { return c.inner.StageRef(data) }
func (c copyOnlyDM) ReadRef(r dm.Ref, off int64, d []byte) error { return c.inner.ReadRef(r, off, d) }
func (c copyOnlyDM) FreeRef(r dm.Ref) error                      { return c.inner.FreeRef(r) }
func (c copyOnlyDM) MapRef(r dm.Ref) (dm.RemoteAddr, error)      { return c.inner.MapRef(r) }
func (c copyOnlyDM) CreateRef(a dm.RemoteAddr, s int64) (dm.Ref, error) {
	return c.inner.CreateRef(a, s)
}
func (c copyOnlyDM) Free(a dm.RemoteAddr) error { return c.inner.Free(a) }

// TestFetchLeaseInlineAliases: an inline payload's lease wraps the
// envelope bytes without copying, and Release drops the hold without
// touching the frame pool.
func TestFetchLeaseInlineAliases(t *testing.T) {
	c := NewCaller(nil, Config{})
	defer c.Close()
	base := live.LeasedBufs()

	src := []byte("inline payload")
	b, err := c.FetchLease(Inline(src))
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 'I' // aliasing is the contract: no copy happened
	if string(b.Bytes()) != "Inline payload" {
		t.Fatalf("inline lease copied instead of aliasing: %q", b.Bytes())
	}
	if got := live.LeasedBufs(); got != base+1 {
		t.Fatalf("gauge with inline lease = %d, want %d", got, base+1)
	}
	b.Release()
	if got := live.LeasedBufs(); got != base {
		t.Fatalf("gauge after release = %d, want %d", got, base)
	}
}

// TestFetchLeaseZeroCopyBackend: with a BufDM backend (*live.Client) the
// staged bytes come back through ReadRefLease — one leased pooled frame,
// balanced by Release.
func TestFetchLeaseZeroCopyBackend(t *testing.T) {
	_, addr := startDM(t, smallDM())
	cdm := dialDM(t, addr)
	c := NewCaller(cdm, Config{InlineThreshold: 512})
	defer c.Close()

	payload := bytes.Repeat([]byte("big"), 2048) // 6 KiB: passes by ref
	p, err := c.Stage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsRef() {
		t.Fatal("payload above the threshold did not stage by ref")
	}
	base := live.LeasedBufs()
	b, err := c.FetchLease(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := live.LeasedBufs(); got != base+1 {
		t.Fatalf("gauge with ref lease = %d, want %d", got, base+1)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("leased ref payload mismatch")
	}
	b.Release()
	if got := live.LeasedBufs(); got != base {
		t.Fatalf("gauge after release = %d, want %d", got, base)
	}
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
}

// TestFetchLeaseCopyBridge: a backend without ReadRefLease still serves
// FetchLease through the copying bridge, with the same ownership
// contract (one lease, one Release).
func TestFetchLeaseCopyBridge(t *testing.T) {
	_, addr := startDM(t, smallDM())
	cdm := dialDM(t, addr)
	bridged := copyOnlyDM{inner: cdm}
	if _, ok := DM(bridged).(BufDM); ok {
		t.Fatal("test wrapper unexpectedly satisfies BufDM")
	}
	c := NewCaller(bridged, Config{InlineThreshold: 512})
	defer c.Close()

	payload := bytes.Repeat([]byte("xyz"), 1024) // 3 KiB: by ref
	p, err := c.Stage(payload)
	if err != nil {
		t.Fatal(err)
	}
	base := live.LeasedBufs()
	b, err := c.FetchLease(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("bridged lease payload mismatch")
	}
	b.Release()
	if got := live.LeasedBufs(); got != base {
		t.Fatalf("gauge after bridged release = %d, want %d", got, base)
	}
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
}

// TestConsumeCopyBridge: a backend with no consume path still serves
// Consume — fetch, then free — so the ref is gone afterwards and the
// lease balances.
func TestConsumeCopyBridge(t *testing.T) {
	srv, addr := startDM(t, smallDM())
	bridged := copyOnlyDM{inner: dialDM(t, addr)}
	c := NewCaller(bridged, Config{InlineThreshold: 512})
	defer c.Close()
	payload := bytes.Repeat([]byte("abc"), 1024)
	p, err := c.Stage(payload)
	if err != nil {
		t.Fatal(err)
	}
	base := live.LeasedBufs()
	b, err := consume(bridged, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("bridged consume payload mismatch")
	}
	b.Release()
	if got := live.LeasedBufs(); got != base {
		t.Fatalf("gauge after bridged consume = %d, want %d", got, base)
	}
	if n := srv.LiveRefs(); n != 0 {
		t.Fatalf("LiveRefs after bridged consume = %d, want 0", n)
	}
}
