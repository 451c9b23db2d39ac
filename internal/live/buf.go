package live

import (
	"sync"
	"sync/atomic"
)

// Zero-copy read delivery (DESIGN.md §D12). The copying read paths
// (Read/ReadRef with a caller dst) pay one memcpy per read: pooled
// response frame -> dst. The lease paths (ReadRefLease, readLease) hand
// the application the pooled response frame itself, wrapped in a
// refcounted Buf — the transport's final copy disappears, at the price
// of an explicit ownership contract: every leased Buf must be Released,
// after which its bytes recycle into the frame pool and must not be
// touched.
//
// leasedBufs is the package-wide outstanding-lease gauge. Every Buf
// minted (leased from the pool or wrapped) increments it; the
// final Release decrements it. Tests assert it returns to its baseline —
// the leak detector for the zero-copy path, including the failure
// cleanups (deadline kills, mid-frame cuts) where no Buf is ever handed
// out and the transport itself must recycle the frame.
var leasedBufs atomic.Int64

// LeasedBufs reports the number of Bufs currently leased out and not yet
// released — 0 when every zero-copy read has been balanced by a Release.
func LeasedBufs() int64 { return leasedBufs.Load() }

// Buf is a refcounted, possibly pool-backed byte buffer leased to the
// application by a zero-copy read. Bytes returns the payload view;
// Release returns the buffer to the transport's frame pool. Retain adds
// a hold for hand-offs across goroutines or ownership boundaries; the
// buffer recycles when the last hold is released.
//
// A Buf is safe for concurrent Retain/Release, but the byte slice itself
// is a plain []byte — readers must not outlive their hold.
type Buf struct {
	data []byte // the payload view handed to the application
	raw  []byte // pooled backing frame; nil when the memory is foreign
	refs atomic.Int32
}

// bufStructPool recycles the Buf headers themselves, so the steady-state
// lease path allocates nothing at all: bytes come from the frame pool,
// the wrapper comes from here. A header is only returned on its final
// Release, when the ownership contract says nobody may touch it again.
var bufStructPool = sync.Pool{New: func() any { return new(Buf) }}

// leaseBuf mints a Buf from the header pool with one hold.
func leaseBuf(raw, data []byte) *Buf {
	b := bufStructPool.Get().(*Buf)
	b.data, b.raw = data, raw
	b.refs.Store(1)
	leasedBufs.Add(1)
	return b
}

// newLeasedBuf wraps a pooled frame (raw) and its payload view (data)
// into a Buf with one hold. Ownership of raw transfers to the Buf: the
// final Release recycles it via putBuf.
func newLeasedBuf(raw, data []byte) *Buf {
	return leaseBuf(raw, data)
}

// WrapBuf wraps foreign memory (not from the frame pool) in a Buf with
// one hold, so APIs that yield leased buffers can also carry bytes the
// transport does not own — inline payloads, caller-allocated copies. The
// final Release drops the reference without recycling anything.
func WrapBuf(data []byte) *Buf {
	return leaseBuf(nil, data)
}

// Bytes returns the leased payload. Valid only until the last Release.
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the payload length.
func (b *Buf) Len() int { return len(b.data) }

// Retain adds one hold.
func (b *Buf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("live: Buf retained after final release")
	}
}

// Release drops one hold; the final one recycles the backing frame into
// the pool and invalidates Bytes. Releasing more times than retained
// panics — a double release means someone still believes they own
// recycled memory.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("live: Buf released twice")
	}
	if n == 0 {
		if b.raw != nil {
			putBuf(b.raw)
			b.raw = nil
		}
		b.data = nil
		leasedBufs.Add(-1)
		bufStructPool.Put(b)
	}
}
