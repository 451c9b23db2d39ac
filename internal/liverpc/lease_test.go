package liverpc

import (
	"bytes"
	"testing"

	"repro/internal/live"
)

// TestFetchLeaseInlineAliases: an inline payload's lease wraps the
// envelope bytes without copying, and Release drops the hold without
// touching the frame pool.
func TestFetchLeaseInlineAliases(t *testing.T) {
	c := NewCaller(nil, Config{})
	defer c.Close()
	base := live.LeasedBufs()

	src := []byte("inline payload")
	b, err := fetchLease(c.dm, Inline(src))
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

// TestFetchLeaseZeroCopyBackend: the staged bytes come back through the
// backend's leased read — one leased pooled frame, balanced by Release.
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
	b, err := fetchLease(c.dm, p)
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
