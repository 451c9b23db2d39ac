//go:build !race

package live

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/dm"
)

// Allocation budgets of the live call path (DESIGN.md §D7, §D8). Each
// counts the heap allocations of one operation across the whole process,
// caller and server together, as the benchmark ladder does. The race
// runtime allocates on its own, hence the build tag; CI runs these
// without -race.

// TestBufPoolAllocs: a getBuf/putBuf round trip allocates nothing at any
// size class, so putBuf does not box the slice it pools.
func TestBufPoolAllocs(t *testing.T) {
	for c := minBufClassBits; c <= maxBufClassBits; c++ {
		for _, n := range []int{1<<(c-1) + 1, 1 << c} {
			putBuf(getBuf(n))
			if got := testing.AllocsPerRun(100, func() { putBuf(getBuf(n)) }); got != 0 {
				t.Errorf("getBuf(%d)/putBuf: %v allocs, want 0", n, got)
			}
		}
	}
}

// TestFreeFramesAllocs: popping frames off the free stack and pushing them
// back allocates nothing, however often they cycle: the stack's array has
// room for every frame (a slice FIFO re-allocated all of itself every few
// hundred frees here).
func TestFreeFramesAllocs(t *testing.T) {
	srv := NewServer(ServerConfig{NumPages: 1024, PageSize: 4096})
	defer srv.Close()
	cycle := func() {
		for i := 0; i < 1000; i++ {
			f, ok := srv.popFrame()
			if !ok {
				t.Fatal("no free frame")
			}
			srv.pushFrames(f)
		}
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("1000 frame take/free cycles: %v allocs, want 0", got)
	}
	if got := srv.FreePages(); got != 1024 {
		t.Fatalf("%d free pages after the cycles, want 1024", got)
	}
}

// TestNodeCallAllocs: a loopback callConsume with a nil consumer and an
// empty fast response costs at most one allocation, so the caller slot,
// the frame pool and the writers allocate nothing per call.
func TestNodeCallAllocs(t *testing.T) {
	srv := NewNode()
	srv.HandleFast(1, func(net.Addr, []byte) ([]byte, error) { return nil, nil })
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	body := make([]byte, 4096)
	call := func() {
		if err := cli.callConsume(addr, 1, nil, body, nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	got := testing.AllocsPerRun(200, call)
	t.Logf("Node.callConsume: %v allocs", got)
	if got > 1 {
		t.Fatalf("Node.callConsume: %v allocs, want <= 1", got)
	}
}

// TestReadRefLeaseAllocs: a 4 KiB ReadRefLease and its Release cost at
// most one allocation: the request header is encoded on the stack and
// the response frame is leased, not copied.
func TestReadRefLeaseAllocs(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	ref, err := cl.StageRef(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		b, err := cl.ReadRefLease(ref, 0, ref.Size)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	read()
	got := testing.AllocsPerRun(200, read)
	t.Logf("ReadRefLease + Release: %v allocs", got)
	if got > 1 {
		t.Fatalf("ReadRefLease + Release: %v allocs, want <= 1", got)
	}
}

// TestStageRefAllocs: a 4 KiB StageRef costs at most three allocations,
// all on the server: the ref's frame list, its entry, and nothing for
// the pooled key response. The frees run outside the count.
func TestStageRefAllocs(t *testing.T) {
	_, addr := startServer(t, smallConfig())
	cl := dialClient(t, addr)
	data := make([]byte, 4096)
	refs := make([]dm.Ref, 32)
	stage := func(i int) {
		var err error
		if refs[i], err = cl.StageRef(data); err != nil {
			t.Fatal(err)
		}
	}
	free := func(i int) {
		if err := cl.FreeRef(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stage(0)
	free(0)
	got := allocsPerOp(10, len(refs), stage, free)
	t.Logf("StageRef: %v allocs", got)
	if got > 3 {
		t.Fatalf("StageRef: %v allocs, want <= 3", got)
	}
}

// allocsPerOp is testing.AllocsPerRun for an op that needs cleanup: it
// runs rounds batches of n ops, calling post on each op after its batch
// and outside the count, and returns the mean allocations per op.
func allocsPerOp(rounds, n int, op, post func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			op(i)
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		for i := 0; i < n; i++ {
			post(i)
		}
	}
	return float64(mallocs) / float64(rounds*n)
}
