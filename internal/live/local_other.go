//go:build !linux

package live

import "net"

// Same-host companions need Linux (abstract Unix sockets, SO_PEERCRED);
// elsewhere every peer is dialed over TCP.
func localName(string) string                        { return "" }
func listenLocal(net.Listener) net.Listener          { return nil }
func dialLocal(*net.Dialer, string) (net.Conn, bool) { return nil, false }
