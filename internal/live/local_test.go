//go:build linux

package live

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// echoNode returns a node whose method 1 echoes its request.
func echoNode() *Node {
	n := NewNode()
	n.HandleFast(1, func(_ net.Addr, body []byte) ([]byte, error) { return append([]byte(nil), body...), nil })
	return n
}

// peerConn returns the socket n holds to addr after a call.
func peerConn(t *testing.T, n *Node, addr string) net.Conn {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.peers[addr]
	if !ok {
		t.Fatalf("no connection to %s", addr)
	}
	return c.c
}

// companion returns the companion n serves, or nil.
func companion(n *Node) net.Listener {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.local
}

// callEcho makes one echo call from cli to addr.
func callEcho(t *testing.T, cli *Node, addr string) {
	t.Helper()
	got, err := cli.Call(addr, 1, []byte("ping"))
	if err != nil || string(got) != "ping" {
		t.Fatalf("call %s: %q, %v", addr, got, err)
	}
}

func TestLocalName(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:7641":          "@dmrpc/127.0.0.1:7641",
		"127.9.9.9:80":            "@dmrpc/127.9.9.9:80",
		"[::1]:7641":              "@dmrpc/[::1]:7641",
		"[::ffff:127.0.0.1]:7641": "@dmrpc/127.0.0.1:7641",
		"localhost:7641":          "", // a name, not a literal IP
		"10.0.0.1:7641":           "",
		"0.0.0.0:7641":            "",
		"[::]:7641":               "",
		":7641":                   "",
	} {
		if got := localName(addr); got != want {
			t.Errorf("localName(%q) = %q, want %q", addr, got, want)
		}
	}
}

// A plain loopback listener serves its same-host peers over the Unix
// companion, on both ends of the connection.
func TestLoopbackDialUsesCompanion(t *testing.T) {
	srv := echoNode()
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	callEcho(t, cli, addr)
	if c, ok := peerConn(t, cli, addr).(*net.UnixConn); !ok {
		t.Fatalf("dialing node holds a %T, want *net.UnixConn", c)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.inbound) == 0 {
		t.Fatal("serving node holds no connection")
	}
	for c := range srv.inbound {
		if _, ok := c.(*net.UnixConn); !ok {
			t.Fatalf("serving node accepted a %T, want *net.UnixConn", c)
		}
	}
}

// Both ends of a companion connection ask for localSendBuffer, so a
// 256 KiB vectored write fits one writev rather than the Unix default's
// two.
func TestCompanionSendBuffer(t *testing.T) {
	srv := echoNode()
	addr := startNode(t, srv)
	cli := NewNode()
	defer cli.Close()
	callEcho(t, cli, addr)
	want := localSendBuffer
	if b, err := os.ReadFile("/proc/sys/net/core/wmem_max"); err == nil {
		if limit, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && limit < want {
			want = limit
		}
	}
	want *= 2 // the kernel doubles what is asked for
	conns := []net.Conn{peerConn(t, cli, addr)}
	srv.mu.Lock()
	for c := range srv.inbound {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	for i, c := range conns {
		uc, ok := c.(*net.UnixConn)
		if !ok {
			t.Fatalf("end %d is a %T, want *net.UnixConn", i, c)
		}
		raw, err := uc.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var got int
		raw.Control(func(fd uintptr) {
			got, err = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("end %d: SO_SNDBUF %d, want %d", i, got, want)
		}
	}
}

// A NodeConfig.Dialer (how fault injectors reach the wire) is used as
// given, even while a companion listens.
func TestDialerKeepsTCP(t *testing.T) {
	srv := echoNode()
	addr := startNode(t, srv)
	if companion(srv) == nil {
		t.Fatal("loopback listener got no companion")
	}
	cli := NewNodeWith(NodeConfig{Dialer: injectedDialer(faultnet.New())})
	defer cli.Close()
	callEcho(t, cli, addr)
	if c, ok := peerConn(t, cli, addr).(*faultnet.Conn); !ok {
		t.Fatalf("dialing node holds a %T, want the injector's *faultnet.Conn", c)
	}
}

// A listener bound to every interface gets no companion, and a loopback
// dial to it falls back to TCP.
func TestWildcardListenerKeepsTCP(t *testing.T) {
	ln, err := net.Listen("tcp4", "0.0.0.0:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := echoNode()
	defer srv.Close()
	go srv.Serve(ln)
	addr := net.JoinHostPort("127.0.0.1", portOf(t, ln))
	cli := NewNode()
	defer cli.Close()
	callEcho(t, cli, addr)
	if companion(srv) != nil {
		t.Fatal("wildcard listener got a companion")
	}
	if c, ok := peerConn(t, cli, addr).(*net.TCPConn); !ok {
		t.Fatalf("dialing node holds a %T, want *net.TCPConn", c)
	}
}

func portOf(t *testing.T, ln net.Listener) string {
	t.Helper()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return port
}

// A faultnet.Restartable listener is wrapped, so it gets no companion and
// its Crash still severs every connection: a registered client's next
// call fails (the premise of pool's TestChaosKillShardReplicated).
func TestRestartableListenerKeepsTCP(t *testing.T) {
	rst, ln, err := faultnet.NewRestartable("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{NumPages: 64, PageSize: 4096})
	defer srv.Close()
	go srv.Serve(ln)
	cfg := defaultClientConfig()
	cfg.Net.CallTimeout = 500 * time.Millisecond
	cfg.Net.AttemptTimeout = 100 * time.Millisecond
	cl, err := DialConfig(cfg, rst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StageRef([]byte("before the crash")); err != nil {
		t.Fatal(err)
	}
	if companion(srv.node) != nil {
		t.Fatal("restartable listener got a companion")
	}
	if c, ok := peerConn(t, cl.node, rst.Addr()).(*net.TCPConn); !ok {
		t.Fatalf("client holds a %T, want *net.TCPConn", c)
	}
	rst.Crash()
	if _, err := cl.StageRef([]byte("after the crash")); err == nil {
		t.Fatal("stage succeeded against a crashed endpoint")
	}
}

// Close releases the companion's name: nothing is left bound under it.
func TestCloseReleasesCompanionName(t *testing.T) {
	srv := echoNode()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	waitServing(srv, done)
	name := localName(ln.Addr().String())
	if l, err := net.Listen("unix", name); err == nil {
		l.Close()
		t.Fatalf("%s was free while the node served", name)
	}
	srv.Close()
	l, err := net.Listen("unix", name)
	if err != nil {
		t.Fatalf("%s still bound after Close: %v", name, err)
	}
	l.Close()
	<-done
}

// A call made right after `go Serve(ln)`, before Serve may have bound the
// companion, still completes: over the companion if the retry after the
// TCP connect finds it, else over TCP.
func TestCallRightAfterServe(t *testing.T) {
	local := 0
	for i := 0; i < 20; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := echoNode()
		go srv.Serve(ln)
		cli := NewNode()
		callEcho(t, cli, ln.Addr().String())
		if _, ok := peerConn(t, cli, ln.Addr().String()).(*net.UnixConn); ok {
			local++
		}
		cli.Close()
		srv.Close()
	}
	t.Logf("%d of 20 calls went over the companion", local)
}

// The same-user check accepts a peer of this process's own user. A peer
// under another user, the case the check exists for, needs a second uid
// and cannot be set up by an unprivileged test.
func TestSameUserAcceptsOwnPeer(t *testing.T) {
	name := fmt.Sprintf("@dmrpc-test/%d/%s", os.Getpid(), t.Name())
	l, err := net.Listen("unix", name)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			defer c.Close()
			c.Read(make([]byte, 1)) // hold until the dialer closes
		}
	}()
	c, refused := dialLocal(&net.Dialer{Timeout: time.Second}, name)
	if c == nil {
		t.Fatalf("own peer rejected (refused=%v)", refused)
	}
	c.Close()
	if _, refused := dialLocal(&net.Dialer{Timeout: time.Second}, name+"-unbound"); !refused {
		t.Fatal("dial to an unbound name not reported as refused")
	}
}
