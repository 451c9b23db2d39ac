package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// byteSum is the reference Aggregate: the plain byte loop.
func byteSum(buf []byte) uint64 {
	var sum uint64
	for _, b := range buf {
		sum += uint64(b)
	}
	return sum
}

// Aggregate equals the byte loop on every length to 4,200 (every tail
// length, and past the lane fold at 64 steps of 32 bytes), at 32 KiB and
// 1 MiB, on all-0xFF bytes (the lanes' worst case) and random ones, from
// every offset within a word.
func TestAggregateMatchesByteLoop(t *testing.T) {
	ones := bytes.Repeat([]byte{0xFF}, 1<<20+7)
	random := make([]byte, 1<<20+7)
	rand.New(rand.NewSource(1)).Read(random)
	lengths := []int{32 << 10, 1 << 20}
	for n := 0; n <= 4200; n++ {
		lengths = append(lengths, n)
	}
	bufs := map[string][]byte{"all-0xFF": ones, "random": random}
	for off := 0; off < 8; off++ {
		for _, n := range lengths {
			for name, buf := range bufs {
				if got, want := Aggregate(buf[off:off+n]), byteSum(buf[off:off+n]); got != want {
					t.Fatalf("%s, %d bytes at offset %d: Aggregate = %d, byte loop = %d", name, n, off, got, want)
				}
			}
		}
	}
}

// sink keeps the benchmarked sums live.
var sink uint64

func BenchmarkAggregate(b *testing.B) {
	for _, n := range []int{4 << 10, 32 << 10, 1 << 20} {
		buf := make([]byte, n)
		FillPayload(buf, 7)
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink += Aggregate(buf)
			}
		})
	}
}

func TestAggregateSensitivity(t *testing.T) {
	buf := make([]byte, 4096)
	FillPayload(buf, 3)
	sum := Aggregate(buf)
	buf[137]++
	if Aggregate(buf) == sum {
		t.Fatal("aggregate did not change when a byte changed")
	}
}

func TestMediaRoundTrip(t *testing.T) {
	buf := make([]byte, 512)
	for id := uint64(0); id < 5; id++ {
		FillMedia(buf, id)
		if err := CheckMedia(buf, id); err != nil {
			t.Fatal(err)
		}
	}
	FillMedia(buf, 9)
	if err := CheckMedia(buf, 10); err == nil {
		t.Fatal("CheckMedia accepted media from another post")
	}
	FillMedia(buf, 4)
	buf[99] ^= 0xff
	if err := CheckMedia(buf, 4); err == nil {
		t.Fatal("CheckMedia accepted corrupt media")
	}
}
