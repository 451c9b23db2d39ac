package dmnet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// rig wires n DM servers and two client processes on separate hosts.
type rig struct {
	eng     *sim.Engine
	net     *simnet.Network
	servers []*Server
	addrs   []simnet.Addr
	c1, c2  *Client
}

func newRig(t *testing.T, seed int64, numServers int, mutate func(*ServerConfig)) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	net := simnet.New(eng, simnet.DefaultConfig())
	r := &rig{eng: eng, net: net}
	for i := 0; i < numServers; i++ {
		cfg := DefaultServerConfig()
		cfg.Memory.NumPages = 64
		if mutate != nil {
			mutate(&cfg)
		}
		srv := NewServer(net.AddHost("dmserver"), 1, uint32(i), cfg)
		srv.Start()
		r.servers = append(r.servers, srv)
		r.addrs = append(r.addrs, srv.Addr())
	}
	n1 := rpc.NewNode(net.AddHost("app1"), 1, "app1", rpc.DefaultConfig())
	n1.Start()
	n2 := rpc.NewNode(net.AddHost("app2"), 1, "app2", rpc.DefaultConfig())
	n2.Start()
	r.c1 = NewClient(n1, r.addrs)
	r.c2 = NewClient(n2, r.addrs)
	return r
}

// run executes fn as a simulated process and drives the engine to
// completion, failing the test on any error fn reports.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	r.eng.Spawn("test", func(p *sim.Proc) {
		if e := r.c1.Register(p); e != nil {
			err = e
			return
		}
		if e := r.c2.Register(p); e != nil {
			err = e
			return
		}
		err = fn(p)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
}

func (r *rig) checkInvariants(t *testing.T) {
	t.Helper()
	for i, s := range r.servers {
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
}

func TestAllocWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 10000)
		if err != nil {
			return err
		}
		msg := bytes.Repeat([]byte("dmrpc!"), 1000)
		if err := r.c1.Write(p, addr, msg); err != nil {
			return err
		}
		got := make([]byte, len(msg))
		if err := r.c1.Read(p, addr, got); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Error("read back differs")
		}
		return r.c1.Free(p, addr)
	})
	r.checkInvariants(t)
}

func TestLazyAllocationNoPagesUntilWrite(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	srv := r.servers[0]
	start := srv.FreePages()
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 8*4096)
		if err != nil {
			return err
		}
		if srv.FreePages() != start {
			t.Errorf("alloc consumed %d pages before any write", start-srv.FreePages())
		}
		if err := r.c1.Write(p, addr, []byte("x")); err != nil {
			return err
		}
		if srv.FreePages() != start-1 {
			t.Errorf("first write should fault exactly 1 page, free went %d -> %d", start, srv.FreePages())
		}
		if srv.Faults() != 1 {
			t.Errorf("Faults = %d", srv.Faults())
		}
		return nil
	})
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 4096)
		if err != nil {
			return err
		}
		got := make([]byte, 128)
		got[0] = 0xFF
		if err := r.c1.Read(p, addr, got); err != nil {
			return err
		}
		for i, b := range got {
			if b != 0 {
				t.Errorf("byte %d = %d, want 0", i, b)
				break
			}
		}
		return nil
	})
}

func TestOffsetReadWriteWithinRegion(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 3*4096)
		if err != nil {
			return err
		}
		// Write straddling a page boundary.
		if err := r.c1.Write(p, addr.Add(4000), []byte("straddle")); err != nil {
			return err
		}
		got := make([]byte, 8)
		if err := r.c1.Read(p, addr.Add(4000), got); err != nil {
			return err
		}
		if string(got) != "straddle" {
			t.Errorf("got %q", got)
		}
		return nil
	})
}

func TestShareViaRef(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 8192)
		if err != nil {
			return err
		}
		if err := r.c1.Write(p, addr, []byte("shared-content")); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 8192)
		if err != nil {
			return err
		}
		// Ref travels by value (e.g. inside an RPC argument).
		ref2, err := dm.UnmarshalRef(ref.Marshal())
		if err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref2)
		if err != nil {
			return err
		}
		got := make([]byte, 14)
		if err := r.c2.Read(p, mapped, got); err != nil {
			return err
		}
		if string(got) != "shared-content" {
			t.Errorf("consumer read %q", got)
		}
		return nil
	})
	r.checkInvariants(t)
}

func TestCoWIsolationBetweenSharers(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, _ := r.c1.Alloc(p, 4096)
		if err := r.c1.Write(p, addr, []byte("original")); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 4096)
		if err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		// Consumer writes: must trigger CoW, leaving the creator's view
		// untouched.
		if err := r.c2.Write(p, mapped, []byte("CLOBBER!")); err != nil {
			return err
		}
		got1 := make([]byte, 8)
		if err := r.c1.Read(p, addr, got1); err != nil {
			return err
		}
		if string(got1) != "original" {
			t.Errorf("creator sees %q after consumer write", got1)
		}
		got2 := make([]byte, 8)
		if err := r.c2.Read(p, mapped, got2); err != nil {
			return err
		}
		if string(got2) != "CLOBBER!" {
			t.Errorf("consumer sees %q after own write", got2)
		}
		if r.servers[0].CoWCopies() != 1 {
			t.Errorf("CoWCopies = %d, want 1", r.servers[0].CoWCopies())
		}
		return nil
	})
	r.checkInvariants(t)
}

func TestCreatorWriteAfterCreateRefAlsoCoWs(t *testing.T) {
	// "The memory region would be marked as read-only, any writes would
	// trigger copy-on-write" — including the creator's own writes.
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		addr, _ := r.c1.Alloc(p, 4096)
		if err := r.c1.Write(p, addr, []byte("original")); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 4096)
		if err != nil {
			return err
		}
		if err := r.c1.Write(p, addr, []byte("mutated!")); err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		got := make([]byte, 8)
		if err := r.c2.Read(p, mapped, got); err != nil {
			return err
		}
		if string(got) != "original" {
			t.Errorf("ref content %q changed by creator's post-ref write", got)
		}
		return nil
	})
	r.checkInvariants(t)
}

func TestPageGranularCoWOnlyCopiesWrittenPages(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	srv := r.servers[0]
	r.run(t, func(p *sim.Proc) error {
		const pages = 8
		addr, _ := r.c1.Alloc(p, pages*4096)
		if err := r.c1.Write(p, addr, make([]byte, pages*4096)); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, pages*4096)
		if err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		// Write only 2 of the 8 pages.
		if err := r.c2.Write(p, mapped, []byte("a")); err != nil {
			return err
		}
		if err := r.c2.Write(p, mapped.Add(3*4096), []byte("b")); err != nil {
			return err
		}
		if srv.CoWCopies() != 2 {
			t.Errorf("CoWCopies = %d, want 2 ('Pages that have not been written would not be copied')", srv.CoWCopies())
		}
		return nil
	})
	r.checkInvariants(t)
}

func TestFullLifecycleNoPageLeak(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	srv := r.servers[0]
	start := srv.FreePages()
	r.run(t, func(p *sim.Proc) error {
		addr, _ := r.c1.Alloc(p, 3*4096)
		if err := r.c1.Write(p, addr, make([]byte, 3*4096)); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 3*4096)
		if err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		if err := r.c2.Write(p, mapped, []byte("cow")); err != nil { // one CoW copy
			return err
		}
		if err := r.c1.Free(p, addr); err != nil {
			return err
		}
		if err := r.c2.Free(p, mapped); err != nil {
			return err
		}
		if err := r.c1.FreeRef(p, ref); err != nil {
			return err
		}
		return nil
	})
	if got := srv.FreePages(); got != start {
		t.Fatalf("page leak: %d free, started with %d", got, start)
	}
	if srv.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d", srv.LiveRefs())
	}
	r.checkInvariants(t)
}

func TestUnconditionalCopyMode(t *testing.T) {
	r := newRig(t, 1, 1, func(c *ServerConfig) { c.UnconditionalCopy = true })
	srv := r.servers[0]
	r.run(t, func(p *sim.Proc) error {
		addr, _ := r.c1.Alloc(p, 4*4096)
		if err := r.c1.Write(p, addr, bytes.Repeat([]byte("z"), 4*4096)); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 4*4096)
		if err != nil {
			return err
		}
		// -copy mode physically copies every page at create_ref time.
		if got := srv.Device().Traffic().PageCopies; got != 4 {
			t.Errorf("PageCopies = %d, want 4", got)
		}
		// The copy decouples creator and consumer without CoW: creator
		// writes do not disturb the snapshot.
		if err := r.c1.Write(p, addr, []byte("mutated")); err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		got := make([]byte, 4)
		if err := r.c2.Read(p, mapped, got); err != nil {
			return err
		}
		if string(got) != "zzzz" {
			t.Errorf("snapshot content %q", got)
		}
		return nil
	})
	r.checkInvariants(t)
}

func TestRoundRobinAcrossServers(t *testing.T) {
	r := newRig(t, 1, 3, nil)
	r.run(t, func(p *sim.Proc) error {
		var servers []int
		for i := 0; i < 6; i++ {
			addr, err := r.c1.Alloc(p, 100)
			if err != nil {
				return err
			}
			idx, _ := splitAddr(addr)
			servers = append(servers, idx)
		}
		want := []int{0, 1, 2, 0, 1, 2}
		for i := range want {
			if servers[i] != want[i] {
				t.Fatalf("allocation servers %v, want %v", servers, want)
			}
		}
		return nil
	})
}

func TestCrossServerRefRouting(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	r.run(t, func(p *sim.Proc) error {
		// Allocate twice so the second lands on server 1.
		a0, _ := r.c1.Alloc(p, 4096)
		a1, _ := r.c1.Alloc(p, 4096)
		_ = a0
		if err := r.c1.Write(p, a1, []byte("on-server-1")); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, a1, 4096)
		if err != nil {
			return err
		}
		if ref.Server != 1 {
			t.Fatalf("ref.Server = %d, want 1", ref.Server)
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		got := make([]byte, 11)
		if err := r.c2.Read(p, mapped, got); err != nil {
			return err
		}
		if string(got) != "on-server-1" {
			t.Errorf("got %q", got)
		}
		return nil
	})
}

func TestErrorPaths(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	r.run(t, func(p *sim.Proc) error {
		// Free of never-allocated address.
		if err := r.c1.Free(p, tagAddr(0, 0x5000)); !errors.Is(err, dm.ErrBadAddress) {
			t.Errorf("Free bad addr: %v", err)
		}
		// Map of unknown ref.
		if _, err := r.c1.MapRef(p, dm.Ref{Server: 0, Key: 999, Size: 10}); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("MapRef unknown: %v", err)
		}
		// Ref to out-of-pool server.
		if _, err := r.c1.MapRef(p, dm.Ref{Server: 9, Key: 0, Size: 10}); !errors.Is(err, dm.ErrBadAddress) {
			t.Errorf("MapRef bad server: %v", err)
		}
		// Read past region end.
		addr, _ := r.c1.Alloc(p, 100)
		big := make([]byte, 8192)
		if err := r.c1.Read(p, addr, big); !errors.Is(err, dm.ErrOutOfRange) {
			t.Errorf("Read out of range: %v", err)
		}
		// CreateRef with bad size.
		if _, err := r.c1.CreateRef(p, addr, 0); !errors.Is(err, dm.ErrOutOfRange) {
			t.Errorf("CreateRef zero size: %v", err)
		}
		// Double free of a ref.
		ref, err := r.c1.CreateRef(p, addr, 100)
		if err != nil {
			return err
		}
		if err := r.c1.FreeRef(p, ref); err != nil {
			return err
		}
		if err := r.c1.FreeRef(p, ref); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("double FreeRef: %v", err)
		}
		return nil
	})
}

func TestOutOfMemory(t *testing.T) {
	r := newRig(t, 1, 1, func(c *ServerConfig) { c.Memory.NumPages = 2 })
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 3*4096)
		if err != nil {
			return err // VA space is fine; pages are the limit
		}
		err = r.c1.Write(p, addr, make([]byte, 3*4096))
		if !errors.Is(err, dm.ErrOutOfMemory) {
			t.Errorf("err = %v, want ErrOutOfMemory", err)
		}
		return nil
	})
}

func TestUnregisteredClientRejected(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	var err error
	r.eng.Spawn("test", func(p *sim.Proc) {
		_, err = r.c1.Alloc(p, 100)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if err == nil {
		t.Fatal("Alloc before Register succeeded")
	}
}

func TestStageRefAndReadRef(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	srv := r.servers[0]
	start := srv.FreePages()
	r.run(t, func(p *sim.Proc) error {
		data := bytes.Repeat([]byte("stagedbytes!"), 1000) // ~12KB, 3 pages
		ref, err := r.c1.StageRef(p, data)
		if err != nil {
			return err
		}
		if ref.Size != int64(len(data)) {
			t.Errorf("ref.Size = %d", ref.Size)
		}
		// Windowed read through the ref, no mapping.
		got := make([]byte, 100)
		if err := r.c2.ReadRef(p, ref, 5000, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data[5000:5100]) {
			t.Error("readref window corrupted")
		}
		// A stale ref after FreeRef must be rejected, and pages reclaimed.
		if err := r.c1.FreeRef(p, ref); err != nil {
			return err
		}
		if err := r.c2.ReadRef(p, ref, 0, got); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("stale readref: %v", err)
		}
		// Error paths.
		if _, err := r.c1.StageRef(p, nil); !errors.Is(err, dm.ErrOutOfRange) {
			t.Errorf("empty stage: %v", err)
		}
		ref2, err := r.c1.StageRef(p, []byte("xy"))
		if err != nil {
			return err
		}
		if err := r.c1.ReadRef(p, ref2, 1, make([]byte, 5)); !errors.Is(err, dm.ErrOutOfRange) {
			t.Errorf("readref past end: %v", err)
		}
		return r.c1.FreeRef(p, ref2)
	})
	if got := srv.FreePages(); got != start {
		t.Fatalf("stage pages leaked: %d free, started %d", got, start)
	}
	r.checkInvariants(t)
}

func TestStageRoundRobins(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	r.run(t, func(p *sim.Proc) error {
		a, err := r.c1.StageRef(p, []byte("one"))
		if err != nil {
			return err
		}
		b, err := r.c1.StageRef(p, []byte("two"))
		if err != nil {
			return err
		}
		if a.Server != 0 || b.Server != 1 {
			t.Errorf("stage servers %d,%d, want 0,1", a.Server, b.Server)
		}
		return nil
	})
}

func TestServerID(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	if r.servers[0].ID() != 0 || r.servers[1].ID() != 1 {
		t.Fatal("server IDs wrong")
	}
}

// TestAlternatePageSize exercises the paper's "the page size is
// changeable" claim: the full share/CoW flow must work at 16 KiB pages.
func TestAlternatePageSize(t *testing.T) {
	r := newRig(t, 1, 1, func(c *ServerConfig) {
		c.Memory.PageSize = 16384
		c.Memory.NumPages = 32
	})
	srv := r.servers[0]
	r.run(t, func(p *sim.Proc) error {
		addr, err := r.c1.Alloc(p, 3*16384)
		if err != nil {
			return err
		}
		if err := r.c1.Write(p, addr, bytes.Repeat([]byte("p"), 3*16384)); err != nil {
			return err
		}
		ref, err := r.c1.CreateRef(p, addr, 3*16384)
		if err != nil {
			return err
		}
		mapped, err := r.c2.MapRef(p, ref)
		if err != nil {
			return err
		}
		// One write in the middle page: exactly one 16 KiB CoW copy.
		if err := r.c2.Write(p, mapped.Add(20000), []byte("x")); err != nil {
			return err
		}
		if srv.CoWCopies() != 1 {
			t.Errorf("CoWCopies = %d, want 1", srv.CoWCopies())
		}
		got := make([]byte, 1)
		if err := r.c1.Read(p, addr.Add(20000), got); err != nil {
			return err
		}
		if got[0] != 'p' {
			t.Errorf("creator view changed: %q", got)
		}
		return nil
	})
	r.checkInvariants(t)
}

// TestRandomOpsAgainstModel drives random DM operations from two clients
// against a pure-Go model of expected region contents and checks reads and
// the server's internal invariants at every step.
func TestRandomOpsAgainstModel(t *testing.T) {
	prop := func(seed int64) bool {
		r := newRig(t, seed, 2, func(c *ServerConfig) { c.Memory.NumPages = 256 })
		rng := rand.New(rand.NewSource(seed))
		type region struct {
			owner *Client
			addr  dm.RemoteAddr
			size  int64
			want  []byte
		}
		type liveRef struct {
			ref  dm.Ref
			want []byte
		}
		var regions []*region
		var refs []liveRef
		ok := true
		fail := func(msg string, args ...any) {
			if ok {
				t.Logf("seed %d: "+msg, append([]any{seed}, args...)...)
			}
			ok = false
		}
		clients := []*Client{r.c1, r.c2}
		r.run(t, func(p *sim.Proc) error {
			for step := 0; step < 120 && ok; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // alloc
					c := clients[rng.Intn(2)]
					size := int64(rng.Intn(5*4096) + 1)
					addr, err := c.Alloc(p, size)
					if err != nil {
						continue
					}
					regions = append(regions, &region{owner: c, addr: addr, size: size, want: make([]byte, size)})
				case op < 6 && len(regions) > 0: // write
					reg := regions[rng.Intn(len(regions))]
					if reg.size == 0 {
						continue
					}
					off := int64(rng.Intn(int(reg.size)))
					n := int64(rng.Intn(int(reg.size-off)) + 1)
					buf := make([]byte, n)
					rng.Read(buf)
					if err := reg.owner.Write(p, reg.addr.Add(off), buf); err != nil {
						fail("write: %v", err)
						continue
					}
					copy(reg.want[off:], buf)
				case op < 8 && len(regions) > 0: // read & verify
					reg := regions[rng.Intn(len(regions))]
					if reg.size == 0 {
						continue
					}
					off := int64(rng.Intn(int(reg.size)))
					n := int64(rng.Intn(int(reg.size-off)) + 1)
					got := make([]byte, n)
					if err := reg.owner.Read(p, reg.addr.Add(off), got); err != nil {
						fail("read: %v", err)
						continue
					}
					if !bytes.Equal(got, reg.want[off:off+n]) {
						fail("step %d: read mismatch at off %d len %d", step, off, n)
					}
				case op == 8 && len(regions) > 0: // create_ref + map at other client
					i := rng.Intn(len(regions))
					reg := regions[i]
					ref, err := reg.owner.CreateRef(p, reg.addr, reg.size)
					if err != nil {
						continue
					}
					snapshot := make([]byte, reg.size)
					copy(snapshot, reg.want)
					refs = append(refs, liveRef{ref: ref, want: snapshot})
					other := clients[0]
					if reg.owner == clients[0] {
						other = clients[1]
					}
					mapped, err := other.MapRef(p, ref)
					if err != nil {
						fail("mapref: %v", err)
						continue
					}
					// The mapping needs its own model buffer: a write
					// through it CoWs and must not affect the ref snapshot.
					mappedWant := make([]byte, len(snapshot))
					copy(mappedWant, snapshot)
					regions = append(regions, &region{owner: other, addr: mapped, size: reg.size, want: mappedWant})
				case op == 9 && len(regions) > 0: // free a region
					i := rng.Intn(len(regions))
					reg := regions[i]
					if err := reg.owner.Free(p, reg.addr); err != nil {
						fail("free: %v", err)
					}
					regions = append(regions[:i], regions[i+1:]...)
				}
				for si, s := range r.servers {
					if err := s.CheckInvariants(); err != nil {
						fail("step %d server %d: %v", step, si, err)
					}
				}
			}
			// Ref snapshots must still read back intact through a fresh map.
			for _, lr := range refs {
				mapped, err := r.c2.MapRef(p, lr.ref)
				if err != nil {
					fail("final mapref: %v", err)
					continue
				}
				got := make([]byte, lr.ref.Size)
				if err := r.c2.Read(p, mapped, got); err != nil {
					fail("final read: %v", err)
					continue
				}
				if !bytes.Equal(got, lr.want) {
					fail("ref snapshot mutated")
				}
			}
			return nil
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptRefMovesKey: adopt_ref on the simulated server gives the live
// server's result — the bytes read back under the new key, the old key
// is dead to reads, frees and a second adopt, and no page moves.
func TestAdoptRefMovesKey(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	srv := r.servers[0]
	start := srv.FreePages()
	r.run(t, func(p *sim.Proc) error {
		data := bytes.Repeat([]byte("adopted!"), 1000)
		ref, err := r.c1.StageRef(p, data)
		if err != nil {
			return err
		}
		staged := srv.FreePages()
		adopt := func(key uint64) (uint64, error) {
			resp, err := r.c2.node.Call(p, r.addrs[0], MAdoptRef,
				dmwire.AdoptRefReq{Key: key}.Append(nil))
			if err != nil {
				return 0, fromAppError(err)
			}
			rk, err := dmwire.UnmarshalRefKeyResp(resp)
			return rk.Key, err
		}
		key, err := adopt(ref.Key)
		if err != nil {
			return err
		}
		if key == ref.Key {
			t.Fatalf("adopt kept key %d", key)
		}
		if got := srv.FreePages(); got != staged {
			t.Errorf("adopt moved pages: %d free, want %d", got, staged)
		}
		own := dm.Ref{Key: key, Size: ref.Size}
		got := make([]byte, len(data))
		if err := r.c2.ReadRef(p, own, 0, got); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read under new key: %v", err)
		}
		if err := r.c1.ReadRef(p, ref, 0, got); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("read under old key: %v", err)
		}
		if _, err := adopt(ref.Key); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("second adopt: %v", err)
		}
		if err := r.c1.FreeRef(p, ref); !errors.Is(err, dm.ErrBadRef) {
			t.Errorf("free of old key: %v", err)
		}
		return r.c2.FreeRef(p, own)
	})
	if got := srv.FreePages(); got != start {
		t.Fatalf("pages leaked: %d free, started %d", got, start)
	}
	r.checkInvariants(t)
}
