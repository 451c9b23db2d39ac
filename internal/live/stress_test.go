package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dmwire"
)

// TestStripedServerStress hammers one striped server from many clients at
// once — alloc/write/read/create_ref/map_ref/stage/read_ref/free cycles —
// and then asserts the D6 conservation invariants quiescently: refcount
// of every frame equals its mappings plus ref holds, no frame is both
// free and held, and free + held == total (no leak). Run under -race by
// `make check`, this is the correctness net under the striped locking.
func TestStripedServerStress(t *testing.T) {
	const (
		numPages = 1 << 12
		pageSize = 1024
		workers  = 8
		rounds   = 60
	)
	srv, addr := startServer(t, ServerConfig{NumPages: numPages, PageSize: pageSize})

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Register(); err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				if err := stressRound(cl, rng); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", seed, i, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("D6 invariants violated after stress: %v", err)
	}
	// Conservation: every page freed by the workers is back on the FIFO.
	if got := srv.FreePages(); got != numPages {
		t.Fatalf("free + mapped != total: %d free of %d after full teardown", got, numPages)
	}
	if got := srv.LiveRefs(); got != 0 {
		t.Fatalf("%d refs leaked", got)
	}
}

// stressRound runs one full lifecycle mixing every hot-path operation.
func stressRound(cl *Client, rng *rand.Rand) error {
	size := int64(rng.Intn(5*1024) + 1)
	buf := make([]byte, size)
	rng.Read(buf)

	// Explicit path: alloc, write, read back, share, CoW-map, free all.
	a, err := cl.Alloc(size)
	if err != nil {
		return err
	}
	if err := cl.Write(a, buf); err != nil {
		return err
	}
	got := make([]byte, size)
	if err := cl.Read(a, got); err != nil {
		return err
	}
	if !bytes.Equal(got, buf) {
		return errors.New("read/write mismatch")
	}
	ref, err := cl.CreateRef(a, size)
	if err != nil {
		return err
	}
	mapped, err := cl.MapRef(ref)
	if err != nil {
		return err
	}
	// CoW write through the mapping must not disturb the snapshot.
	if err := cl.Write(mapped, []byte{^buf[0]}); err != nil {
		return err
	}
	if err := cl.ReadRef(ref, 0, got[:1]); err != nil {
		return err
	}
	if got[0] != buf[0] {
		return errors.New("CoW isolation broken: snapshot observed a sharer's write")
	}
	if err := cl.Free(mapped); err != nil {
		return err
	}
	if err := cl.Free(a); err != nil {
		return err
	}
	if err := cl.FreeRef(ref); err != nil {
		return err
	}

	// Fused path: stage, read through the ref, release.
	ref2, err := cl.StageRef(buf)
	if err != nil {
		return err
	}
	off := int64(0)
	if size > 1 {
		off = int64(rng.Intn(int(size - 1)))
	}
	window := make([]byte, size-off)
	if err := cl.ReadRef(ref2, off, window); err != nil {
		return err
	}
	if !bytes.Equal(window, buf[off:]) {
		return errors.New("staged readref mismatch")
	}
	return cl.FreeRef(ref2)
}

// TestBatchedWriterStress hammers ONE shared client — so every worker's
// frames funnel through the same connection's writer — with a mix of
// synchronous small ops, pipelined async bursts, and payloads of tens of
// KiB, under -race. Afterwards the D6/D7 conservation invariants must
// hold exactly: every page free, every ref released, every byte read
// back as written, and no frame dropped.
func TestBatchedWriterStress(t *testing.T) {
	const (
		numPages = 1 << 12
		pageSize = 1024
		workers  = 8
		rounds   = 25
	)
	srv, addr := startServer(t, ServerConfig{NumPages: numPages, PageSize: pageSize})
	cl := dialClient(t, addr) // one client: one conn, one writer

	big := bytes.Repeat([]byte{0x5A}, 20<<10)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				// Pipelined burst of small stages.
				const burst = 4
				stages := make([]*AsyncRef, burst)
				small := make([][]byte, burst)
				for j := range stages {
					small[j] = make([]byte, rng.Intn(2048)+1)
					rng.Read(small[j])
					stages[j] = cl.StageRefAtAsync(dmwire.ReplicaKeyBit|uint64(w)<<32|uint64(i*burst+j), nil, small[j])
				}
				for j, ar := range stages {
					ref, err := ar.Wait()
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d stage %d: %w", w, i, j, err)
						return
					}
					got := make([]byte, len(small[j]))
					if err := cl.ReadRef(ref, 0, got); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, small[j]) {
						errs <- errors.New("pipelined stage corrupted")
						return
					}
					if err := cl.FreeRef(ref); err != nil {
						errs <- err
						return
					}
				}
				// A large op between the bursts.
				ref, err := cl.StageRef(big)
				if err != nil {
					errs <- err
					return
				}
				window := make([]byte, 512)
				if err := cl.ReadRef(ref, int64(rng.Intn(len(big)-512)), window); err != nil {
					errs <- err
					return
				}
				if err := cl.FreeRef(ref); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("D6 invariants violated under batched writers: %v", err)
	}
	if got := srv.FreePages(); got != numPages {
		t.Fatalf("pages leaked: %d free of %d", got, numPages)
	}
	if got := srv.LiveRefs(); got != 0 {
		t.Fatalf("%d refs leaked", got)
	}
	ws := cl.node.WriteStats()
	if ws.Frames == 0 {
		t.Fatalf("client writer wrote no frames: %+v", ws)
	}
	if ws.DroppedFrames != 0 {
		t.Fatalf("%d frames dropped on a healthy connection", ws.DroppedFrames)
	}
}

// TestStressSharedRefsAcrossClients shares one staged ref across many
// readers and CoW writers concurrently, then verifies the invariants and
// that teardown returns every page.
func TestStressSharedRefsAcrossClients(t *testing.T) {
	const numPages = 1 << 12
	srv, addr := startServer(t, ServerConfig{NumPages: numPages, PageSize: 1024})
	producer := dialClient(t, addr)

	payload := bytes.Repeat([]byte{0xAB}, 10*1024)
	ref, err := producer.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Register(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				got := make([]byte, len(payload))
				if err := cl.ReadRef(ref, 0, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- errors.New("shared snapshot corrupted")
					return
				}
				// Map privately and dirty one page: triggers CoW against
				// the frames every other worker is reading.
				mapped, err := cl.MapRef(ref)
				if err != nil {
					errs <- err
					return
				}
				if err := cl.Write(mapped.Add(int64(i%10)*1024), []byte{byte(w)}); err != nil {
					errs <- err
					return
				}
				if err := cl.Free(mapped); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := producer.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("D6 invariants violated: %v", err)
	}
	if got := srv.FreePages(); got != numPages {
		t.Fatalf("pages leaked: %d free of %d", got, numPages)
	}
}
