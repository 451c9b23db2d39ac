package live

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dm"
	"repro/internal/rpc"
)

// startNode serves a node on loopback and returns its address once the
// node is serving, its same-host companion's accept loop included.
func startNode(t *testing.T, n *Node) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := n.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		n.Close()
		<-done
	})
	waitServing(n, done)
	return ln.Addr().String()
}

// waitServing returns once Serve has installed its listeners (or ended).
func waitServing(n *Node, done <-chan struct{}) {
	for {
		n.mu.Lock()
		up := n.ln != nil
		n.mu.Unlock()
		select {
		case <-done:
			return
		default:
		}
		if up {
			return
		}
		runtime.Gosched()
	}
}

func TestNodeCallRoundTrip(t *testing.T) {
	srv := NewNode()
	srv.Handle(1, func(from net.Addr, body []byte) ([]byte, error) {
		return append([]byte("echo:"), body...), nil
	})
	addr := startNode(t, srv)

	cli := NewNode()
	defer cli.Close()
	resp, err := cli.Call(addr, 1, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp %q", resp)
	}
}

func TestNodeUnknownMethod(t *testing.T) {
	srv := NewNode()
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	if _, err := cli.Call(addr, 99, nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestNodeHandlerErrorsMapToDmErrors(t *testing.T) {
	srv := NewNode()
	srv.Handle(2, func(from net.Addr, body []byte) ([]byte, error) {
		return nil, dm.ErrOutOfMemory
	})
	srv.Handle(3, func(from net.Addr, body []byte) ([]byte, error) {
		return nil, errors.New("custom failure")
	})
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	if _, err := cli.Call(addr, 2, nil); !errors.Is(err, dm.ErrOutOfMemory) {
		t.Fatalf("dm error lost: %v", err)
	}
	var ae *rpc.AppError
	if _, err := cli.Call(addr, 3, nil); !errors.As(err, &ae) || ae.Msg != "custom failure" {
		t.Fatalf("custom error lost: %v", err)
	}
}

func TestNodeConcurrentCalls(t *testing.T) {
	srv := NewNode()
	srv.Handle(1, func(from net.Addr, body []byte) ([]byte, error) {
		return body, nil
	})
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := cli.Call(addr, 1, msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("cross-talk: %q", resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNodeDuplicateHandlerPanics(t *testing.T) {
	n := NewNode()
	n.Handle(1, func(from net.Addr, body []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	n.Handle(1, func(from net.Addr, body []byte) ([]byte, error) { return nil, nil })
}

func TestNodeReconnectsAfterPeerRestart(t *testing.T) {
	srv := NewNode()
	srv.Handle(1, func(from net.Addr, body []byte) ([]byte, error) { return body, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	cli := NewNode()
	defer cli.Close()
	if _, err := cli.Call(addr, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address.
	srv.Close()
	srv2 := NewNode()
	srv2.Handle(1, func(from net.Addr, body []byte) ([]byte, error) { return body, nil })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv2.Serve(ln2) }()
	defer func() { srv2.Close(); <-done }()

	// The client's cached connection is dead; Call must redial.
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if _, lastErr = cli.Call(addr, 1, []byte("b")); lastErr == nil {
			return
		}
	}
	t.Fatalf("never reconnected: %v", lastErr)
}

// TestLiveMicroservicesEndToEnd runs the paper's flow over real TCP:
// producer -> forwarder -> consumer microservices exchanging a 20-byte
// Ref whose payload lives in a live DM server.
func TestLiveMicroservicesEndToEnd(t *testing.T) {
	// The DM pool.
	dmSrv, dmAddr := startServer(t, ServerConfig{NumPages: 1024, PageSize: 4096})

	// Consumer microservice: reads the ref, checksums the payload.
	consumerDM := dialClient(t, dmAddr)
	consumer := NewNode()
	consumer.Handle(0x0500, func(from net.Addr, body []byte) ([]byte, error) {
		ref, err := dm.UnmarshalRef(body)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, ref.Size)
		if err := consumerDM.ReadRef(ref, 0, buf); err != nil {
			return nil, err
		}
		var sum uint64
		for _, b := range buf {
			sum += uint64(b)
		}
		return rpc.NewEnc(8).U64(sum).Bytes(), nil
	})
	consumerAddr := startNode(t, consumer)

	// Forwarder microservice: relays the Ref without touching the payload.
	forwarder := NewNode()
	forwarder.Handle(0x0500, func(from net.Addr, body []byte) ([]byte, error) {
		if len(body) > 64 {
			return nil, fmt.Errorf("forwarder saw %dB: payload leaked into the RPC", len(body))
		}
		return forwarder.Call(consumerAddr, 0x0500, body)
	})
	forwarderAddr := startNode(t, forwarder)

	// Producer: stages 64 KiB, sends only the Ref through the chain.
	producerDM := dialClient(t, dmAddr)
	producer := NewNode()
	defer producer.Close()
	payload := make([]byte, 65536)
	var want uint64
	for i := range payload {
		payload[i] = byte(i * 7)
		want += uint64(payload[i])
	}
	ref, err := producerDM.StageRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := producer.Call(forwarderAddr, 0x0500, ref.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := rpc.NewDec(resp).U64(); got != want {
		t.Fatalf("checksum %d, want %d", got, want)
	}
	if err := producerDM.FreeRef(ref); err != nil {
		t.Fatal(err)
	}
	if err := dmSrv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
