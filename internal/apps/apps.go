// Package apps holds the backend-agnostic application logic of the
// paper's evaluation workloads, shared by the simulator service layer
// (internal/msvc) and the live TCP service layer (internal/liverpc) so
// the two worlds compute the same thing and cannot drift: the Chain
// terminal's aggregation loop (Fig 5) and the SocialNet post-media
// conventions (Fig 11). Pure functions over byte slices — no transport,
// no simulation.
package apps

import (
	"encoding/binary"
	"fmt"
)

// Aggregate is the chain terminal's worker loop (paper Listing 1): a
// full pass over the payload reducing it to one value. Byte-summing
// makes the result payload-content-sensitive, so end-to-end tests can
// verify the right bytes arrived through either transport.
//
// It sums a word at a time: each 8-byte load is split into four 16-bit
// lanes of its even bytes and four of its odd bytes, two accumulators
// (even, odd) take 32 bytes per step, and the lanes are folded into the
// sum before any can overflow. The result equals the plain byte sum for
// every input.
func Aggregate(buf []byte) uint64 {
	const (
		lanes = 0x00FF00FF00FF00FF
		// A lane gains at most 4*255 per step, so 64 steps (65,280) fit
		// in 16 bits.
		stepsPerFold = 64
	)
	var sum uint64
	for len(buf) >= 32 {
		run := buf[:min(len(buf)/32, stepsPerFold)*32]
		buf = buf[len(run):]
		var even, odd uint64
		for ; len(run) >= 32; run = run[32:] {
			w := run[:32:32] // one bounds check for the four loads
			w0 := binary.LittleEndian.Uint64(w[0:8])
			w1 := binary.LittleEndian.Uint64(w[8:16])
			w2 := binary.LittleEndian.Uint64(w[16:24])
			w3 := binary.LittleEndian.Uint64(w[24:32])
			even += w0&lanes + w1&lanes + w2&lanes + w3&lanes
			odd += w0>>8&lanes + w1>>8&lanes + w2>>8&lanes + w3>>8&lanes
		}
		sum += foldLanes(even) + foldLanes(odd)
	}
	for _, c := range buf {
		sum += uint64(c)
	}
	return sum
}

// foldLanes adds the four 16-bit lanes of x.
func foldLanes(x uint64) uint64 {
	return x&0xFFFF + x>>16&0xFFFF + x>>32&0xFFFF + x>>48
}

// FillPayload writes a deterministic, offset-sensitive pattern seeded by
// seed, so torn or misordered transfers change the aggregate.
func FillPayload(buf []byte, seed uint64) {
	for i := range buf {
		buf[i] = byte(seed + uint64(i)*31)
	}
}

// FillMedia stamps a post's media buffer with its post id, making each
// post's content distinguishable when read back.
func FillMedia(buf []byte, id uint64) {
	if len(buf) == 0 {
		return
	}
	FillPayload(buf, id*7919)
	buf[0] = byte(id)
}

// CheckMedia verifies a media buffer read back from storage matches what
// FillMedia wrote for id.
func CheckMedia(buf []byte, id uint64) error {
	if len(buf) == 0 {
		return nil
	}
	if buf[0] != byte(id) {
		return fmt.Errorf("apps: media tagged %d, want %d", buf[0], byte(id))
	}
	for i := 1; i < len(buf); i++ {
		if buf[i] != byte(id*7919+uint64(i)*31) {
			return fmt.Errorf("apps: media for post %d corrupt at byte %d", id, i)
		}
	}
	return nil
}
