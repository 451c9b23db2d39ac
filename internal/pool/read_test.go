package pool

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/faultnet"
	"repro/internal/live"
)

// readEntryPoints lists every way to read a ref through the pool, each
// reduced to "n bytes at off, as a copy". The leased forms release their
// Buf on every path, so live.LeasedBufs() balances iff the pool's own
// lease + copy plumbing does.
var readEntryPoints = []struct {
	name string
	read func(p *Client, ref dm.Ref, off, n int64) ([]byte, error)
}{
	{"ReadRef", func(p *Client, ref dm.Ref, off, n int64) ([]byte, error) {
		dst := make([]byte, n)
		return dst, p.ReadRef(ref, off, dst)
	}},
	{"ReadRefFrom", func(p *Client, ref dm.Ref, off, n int64) ([]byte, error) {
		dst := make([]byte, n)
		return dst, p.ReadRefFrom(ref, p.Replicas(ref), off, dst)
	}},
	{"ReadRefLease", func(p *Client, ref dm.Ref, off, n int64) ([]byte, error) {
		b, err := p.ReadRefLease(ref, off, n)
		if err != nil {
			return nil, err
		}
		defer b.Release()
		return bytes.Clone(b.Bytes()), nil
	}},
	{"ReadRefLeaseFrom", func(p *Client, ref dm.Ref, off, n int64) ([]byte, error) {
		b, err := p.ReadRefLeaseFrom(ref, p.Replicas(ref), off, n)
		if err != nil {
			return nil, err
		}
		defer b.Release()
		return bytes.Clone(b.Bytes()), nil
	}},
}

// TestReadEntryPointsAgree pins the one-read-path contract: whichever
// entry point a caller picks, with the cache off or on, with the primary
// healthy or crashed at R=2, it gets the same bytes, the same failover
// accounting, the same answer to an out-of-range read at the same wire
// cost, and no leased Buf is left behind — error cases included.
func TestReadEntryPointsAgree(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("cache=%d/kill=%v", cacheBytes, kill), func(t *testing.T) {
				testReadEntryPoints(t, cacheBytes, kill)
			})
		}
	}
}

func testReadEntryPoints(t *testing.T, cacheBytes int64, kill bool) {
	const shards, victim = 3, 1
	baseline := live.LeasedBufs()

	// No session leasing: no heartbeats, so Stats().Calls counts reads
	// only and a crashed shard is never ejected — every read of its refs
	// tries it first and must fail over.
	pcfg := Config{ReplicaFactor: 2, RepairInterval: -1, RejoinPoll: -1, CacheBytes: cacheBytes}
	pcfg.Client.Net.CallTimeout = 500 * time.Millisecond
	pcfg.Client.Net.AttemptTimeout = 100 * time.Millisecond
	pcfg.Client.Net.DialTimeout = 100 * time.Millisecond
	var crash func()
	for i := 0; i < shards; i++ {
		scfg := smallShard()
		scfg.HasShard, scfg.ShardID = true, uint32(i)
		srv := live.NewServer(scfg)
		rst, ln, err := faultnet.NewRestartable("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) // the victim's accept error after Crash is expected
		t.Cleanup(func() { srv.Close() })
		pcfg.Shards = append(pcfg.Shards, rst.Addr())
		if i == victim {
			crash = func() { rst.Crash(); srv.Close() }
		}
	}
	p, err := Dial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}

	// One ref per entry point, all with the victim as primary, so a
	// cache hit earned by one entry point cannot hide another's wire
	// behaviour.
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8192) }
	refs := make([]dm.Ref, 0, len(readEntryPoints))
	for i := 0; i < 200 && len(refs) < cap(refs); i++ {
		ref, err := p.StageRef(body(len(refs)))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Server == victim {
			refs = append(refs, ref)
		}
	}
	if len(refs) < cap(refs) {
		t.Fatalf("only %d of 200 stages landed on shard %d", len(refs), victim)
	}
	if kill {
		crash()
	}

	// checkLeases: everything leased beyond the baseline is a payload the
	// cache itself holds.
	checkLeases := func(what string) {
		t.Helper()
		if got, want := live.LeasedBufs()-baseline, p.CacheStats().Entries; got != want {
			t.Fatalf("after %s: %d Bufs leased beyond baseline, cache holds %d", what, got, want)
		}
	}
	// Expected failover delta of a first and a repeat whole-object read,
	// and the wire calls one refused read may cost: the primary's answer
	// when it is up, one dead attempt plus one replica's answer when not
	// — never a second replica.
	wantFailover, wantOORCalls := [2]int64{0, 0}, int64(1)
	if kill {
		wantFailover, wantOORCalls = [2]int64{1, 1}, 2
		if cacheBytes > 0 {
			wantFailover[1] = 0 // the repeat read is a cache hit
		}
	}
	for i, ep := range readEntryPoints {
		ref := refs[i]
		// Out of range twice over: a partial read past the end (never
		// cacheable) and a whole-object read of a ref claiming one page
		// more than was staged (cacheable, so the refusal comes back
		// through the cache's loader).
		oversize := ref
		oversize.Size += 4096
		for _, oor := range []struct {
			ref    dm.Ref
			off, n int64
		}{{ref, ref.Size - 4, 8}, {oversize, 0, oversize.Size}} {
			calls := p.Stats().Calls
			if _, err := ep.read(p, oor.ref, oor.off, oor.n); !errors.Is(err, dm.ErrOutOfRange) {
				t.Fatalf("%s [%d,+%d) of %d bytes: %v, want ErrOutOfRange", ep.name, oor.off, oor.n, ref.Size, err)
			}
			if d := p.Stats().Calls - calls; d != wantOORCalls {
				t.Fatalf("%s out-of-range read cost %d wire calls, want %d", ep.name, d, wantOORCalls)
			}
			checkLeases(ep.name + " out of range")
		}

		for round, want := range wantFailover {
			before := p.FailoverReads()
			got, err := ep.read(p, ref, 0, ref.Size)
			if err != nil {
				t.Fatalf("%s round %d: %v", ep.name, round, err)
			}
			if !bytes.Equal(got, body(i)) {
				t.Fatalf("%s round %d returned wrong bytes", ep.name, round)
			}
			if d := p.FailoverReads() - before; d != want {
				t.Fatalf("%s round %d: FailoverReads delta %d, want %d", ep.name, round, d, want)
			}
			checkLeases(ep.name)
		}

		// The oversize ref again, now that its key may be cached at the
		// true size: still refused, never served short.
		if _, err := ep.read(p, oversize, 0, oversize.Size); !errors.Is(err, dm.ErrOutOfRange) {
			t.Fatalf("%s of an oversize ref after caching: %v, want ErrOutOfRange", ep.name, err)
		}
		checkLeases(ep.name + " oversize after caching")
	}

	p.Close()
	if n := live.LeasedBufs(); n != baseline {
		t.Fatalf("LeasedBufs = %d after Close, baseline %d", n, baseline)
	}
}
