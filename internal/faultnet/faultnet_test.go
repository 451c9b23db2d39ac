package faultnet

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pipePair returns a fault-injected client conn talking to a plain server
// conn over a real loopback socket.
func pipePair(t *testing.T, inj *Injector) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		server = c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	client = inj.Conn(raw)
	t.Cleanup(func() {
		client.Close()
		if server != nil {
			server.Close()
		}
	})
	return client, server
}

func TestTransparentByDefault(t *testing.T) {
	inj := New()
	client, server := pipePair(t, inj)
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("got %q, %v", buf, err)
	}
}

func TestReadDelay(t *testing.T) {
	inj := New()
	inj.SetReadDelay(50 * time.Millisecond)
	client, server := pipePair(t, inj)
	if _, err := server.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("read returned in %v, want >= ~50ms", d)
	}
}

func TestStallAndUnstall(t *testing.T) {
	inj := New()
	inj.Stall()
	client, server := pipePair(t, inj)
	if _, err := server.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := io.ReadFull(client, buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("read completed while stalled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	inj.Unstall()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after Unstall")
	}
}

// TestHealClearsStall covers the Heal/Stall interaction: a partition
// raised while a stall is active must not leave the stall gate armed
// after Heal, or fresh dials over the healed link wedge silently.
func TestHealClearsStall(t *testing.T) {
	inj := New()
	inj.Stall()
	inj.Partition()
	inj.Heal()
	client, server := pipePair(t, inj)
	if _, err := server.Write([]byte("h")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(client, make([]byte, 1))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read on healed link still stalled: Heal did not clear the stall gate")
	}
}

// TestStallHonoursWriteDeadline pins the deadline semantics of the
// injected faults: a write held by a stall or by a write delay fails
// with os.ErrDeadlineExceeded once its deadline passes, as a write to a
// real socket whose peer stopped reading does, and a read held by a
// stall does the same with its read deadline.
func TestStallHonoursWriteDeadline(t *testing.T) {
	inj := New()
	client, _ := pipePair(t, inj)
	// within runs op in the background and returns its error, failing
	// the test if op is still blocked after 2 s.
	within := func(what string, op func() error) error {
		t.Helper()
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- op() }()
		select {
		case err := <-done:
			if d := time.Since(start); d < 40*time.Millisecond {
				t.Errorf("%s returned after %v, before its 50ms deadline", what, d)
			}
			return err
		case <-time.After(2 * time.Second):
			client.Close() // release the blocked I/O
			<-done
			t.Fatalf("%s still blocked 2s past its deadline", what)
			return nil
		}
	}
	write := func() error {
		_, err := client.Write([]byte("w"))
		return err
	}

	inj.Stall()
	client.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if err := within("stalled write", write); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write = %v, want os.ErrDeadlineExceeded", err)
	}
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if err := within("stalled read", func() error {
		_, err := client.Read(make([]byte, 1))
		return err
	}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read = %v, want os.ErrDeadlineExceeded", err)
	}
	inj.Unstall()

	inj.SetWriteDelay(time.Minute)
	client.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if err := within("delayed write", write); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("delayed write = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestStalledReadUnblocksOnClose(t *testing.T) {
	inj := New()
	inj.Stall()
	client, _ := pipePair(t, inj)
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := client.Read(buf)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-got:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read not released by Close")
	}
}

func TestCutAfterTearsWriteMidFrame(t *testing.T) {
	inj := New()
	client, server := pipePair(t, inj)
	inj.CutAfter(3)
	n, err := client.Write([]byte("abcdef"))
	if err == nil {
		t.Fatal("write past the cut budget succeeded")
	}
	if n != 3 {
		t.Fatalf("wrote %d bytes before cut, want 3", n)
	}
	// The peer sees the truncated prefix, then EOF/reset.
	buf := make([]byte, 6)
	got, _ := io.ReadFull(server, buf)
	if got != 3 {
		t.Fatalf("peer received %d bytes, want 3", got)
	}
}

func TestTruncateNextWrite(t *testing.T) {
	inj := New()
	client, server := pipePair(t, inj)
	inj.TruncateNextWrite()
	if _, err := client.Write([]byte("abcdef")); err == nil {
		t.Fatal("truncated write reported success")
	}
	buf := make([]byte, 6)
	got, _ := io.ReadFull(server, buf)
	if got != 3 {
		t.Fatalf("peer received %d bytes, want half (3)", got)
	}
}

func TestPartitionKillsAndBlocksConns(t *testing.T) {
	inj := New()
	client, _ := pipePair(t, inj)
	var wg sync.WaitGroup
	wg.Add(1)
	readErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		_, err := client.Read(buf)
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	inj.Partition()
	wg.Wait()
	if err := <-readErr; err == nil {
		t.Fatal("read survived partition")
	}
	// New conns die on arrival while partitioned.
	c2, _ := pipePair(t, inj)
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on partitioned new conn succeeded")
	}
	inj.Heal()
	c3, s3 := pipePair(t, inj)
	if _, err := s3.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c3, make([]byte, 1)); err != nil {
		t.Fatalf("healed link still broken: %v", err)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	inj := New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := inj.Listener(ln)
	defer fln.Close()
	inj.Stall()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srvConn := <-accepted
	defer srvConn.Close()
	if _, err := raw.Write([]byte("q")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srvConn.Read(make([]byte, 1))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("accepted conn not stalled")
	case <-time.After(50 * time.Millisecond):
	}
	inj.Unstall()
	<-done
}
