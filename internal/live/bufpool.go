package live

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size-classed frame/payload buffer pool for the live hot path. The TCP
// framing layer allocates one payload buffer per frame on both sides of
// the wire; at data-plane rates that is gigabytes per second of garbage,
// so buffers are recycled through per-class sync.Pools instead.
//
// A pool holds a buffer's base pointer (*byte), not its slice header:
// storing a pointer in an interface allocates nothing, where a []byte
// would be boxed on every putBuf. getBuf rebuilds the slice at the
// class's capacity. That is exact because putBuf pools only a buffer
// whose capacity is the class size, and the pointer keeps the whole
// backing array alive while it sits in the pool.
//
// Ownership rules (DESIGN.md §4 D7):
//   - readFrameBuf hands the payload to its caller, who must putBuf it
//     after the last use of the payload and anything aliasing it.
//   - A buffer sent over a channel (client response dispatch) transfers
//     ownership to the receiver.
//   - A handler's response whose capacity is a size class is the
//     serving slot's: the slot keeps it for replay until the slot is
//     reused, then putBufs it (Node.serve, session.go). A handler builds
//     such a response in a GetBuf buffer and must not keep or alias it.
//     Any other response may alias the request frame, which the slot
//     keeps instead; a fast handler's response must never alias it.
//   - putBuf on a buffer that did not come from getBuf is safe: only
//     slices whose capacity matches a size class are pooled.

const (
	minBufClassBits = 9  // 512 B
	maxBufClassBits = 21 // 2 MiB; larger buffers fall back to make
)

var bufPools [maxBufClassBits - minBufClassBits + 1]sync.Pool

// bufClass returns the smallest class index whose size fits n, or -1 if n
// is larger than every class.
func bufClass(n int) int {
	if n <= 1<<minBufClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minBufClassBits
	if c > maxBufClassBits-minBufClassBits {
		return -1
	}
	return c
}

// getBuf returns a length-n buffer, pooled when a size class fits. The
// contents are unspecified: callers overwrite or clear it.
func getBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	size := 1 << (c + minBufClassBits)
	if p, _ := bufPools[c].Get().(*byte); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	return make([]byte, n, size)
}

// GetBuf returns a length-n buffer from the frame pool. A handler that
// returns one as its response hands it to the serving slot, which
// recycles it once the slot moves on.
func GetBuf(n int) []byte { return getBuf(n) }

// putBuf recycles a buffer obtained from getBuf. Buffers whose capacity
// does not exactly match a size class (handler-allocated responses, tiny
// codec outputs) are dropped for the GC, which keeps double-pooling of
// re-sliced foreign memory impossible.
func putBuf(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	bufPools[c].Put(unsafe.SliceData(b))
}

// capClass maps an exact power-of-two capacity to its class, or -1.
func capClass(c int) int {
	if c <= 0 || c&(c-1) != 0 {
		return -1
	}
	k := bits.TrailingZeros(uint(c))
	if k < minBufClassBits || k > maxBufClassBits {
		return -1
	}
	return k - minBufClassBits
}
