//go:build linux

package live

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"syscall"
)

// localName names the same-host companion of a TCP listener at addr: an
// abstract Unix socket (no file; scoped to the network namespace, like
// loopback TCP). It is "" unless addr is a literal loopback IP and port.
func localName(addr string) string {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().IsLoopback() {
		return ""
	}
	return "@dmrpc/" + netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
}

// listenLocal binds ln's companion, or returns nil: a wrapped listener (a
// fault injector's) and a failed bind keep TCP only.
func listenLocal(ln net.Listener) net.Listener {
	name := localName(ln.Addr().String())
	if _, ok := ln.(*net.TCPListener); !ok || name == "" {
		return nil
	}
	l, _ := net.Listen("unix", name)
	return l
}

// dialLocal connects to the companion name and keeps the connection only
// if SO_PEERCRED shows its peer runs as this process's user, so a socket
// another user bound under the name first is never used. refused reports
// that nothing listens under the name (yet).
func dialLocal(d *net.Dialer, name string) (c net.Conn, refused bool) {
	c, err := d.Dial("unix", name)
	if err != nil {
		return nil, errors.Is(err, syscall.ECONNREFUSED)
	}
	var cred *syscall.Ucred
	raw, _ := c.(*net.UnixConn).SyscallConn() // fails only on a nil conn
	raw.Control(func(fd uintptr) {
		cred, err = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	})
	if err != nil || cred == nil || cred.Uid != uint32(os.Getuid()) {
		c.Close()
		return nil, false
	}
	c.(*net.UnixConn).SetWriteBuffer(localSendBuffer) // best effort
	return c, false
}
