// Package faultnet wraps net.Conn and net.Listener with deterministic,
// script-controlled fault injection: added latency, read/write stalls,
// mid-stream connection resets after a byte budget, truncated writes, and
// full partitions. It exists so the live DM path's failure handling
// (internal/live: leases, deadlines, at-most-once retries) can be driven
// through real sockets exhibiting the failures a datacenter actually
// produces — without flaky sleeps or OS-level tricks.
//
// An Injector is shared by every connection it wraps; its zero value is
// transparent. All knobs are safe for concurrent use and take effect on
// the next I/O operation, so tests can flip faults while traffic is in
// flight.
package faultnet

import (
	"net"
	"sync"
	"time"
)

// Injector scripts faults for the connections it wraps.
type Injector struct {
	mu          sync.Mutex
	readDelay   time.Duration
	writeDelay  time.Duration
	stalled     bool
	unstall     chan struct{} // closed by Unstall; recreated by Stall
	cutBudget   int64         // >=0: bytes (either direction) until reset; -1: disarmed
	truncNext   bool
	partitioned bool
	conns       map[*Conn]struct{}
}

// New returns a transparent injector.
func New() *Injector {
	return &Injector{cutBudget: -1, conns: make(map[*Conn]struct{})}
}

// SetReadDelay adds d of latency before every Read returns data.
func (i *Injector) SetReadDelay(d time.Duration) {
	i.mu.Lock()
	i.readDelay = d
	i.mu.Unlock()
}

// SetWriteDelay adds d of latency before every Write.
func (i *Injector) SetWriteDelay(d time.Duration) {
	i.mu.Lock()
	i.writeDelay = d
	i.mu.Unlock()
}

// Stall blocks every Read and Write on wrapped connections until Unstall
// or the connection is closed. The peer sees an open, silent endpoint —
// the "accepting-but-dead" server failure mode.
func (i *Injector) Stall() {
	i.mu.Lock()
	if !i.stalled {
		i.stalled = true
		i.unstall = make(chan struct{})
	}
	i.mu.Unlock()
}

// Unstall releases every I/O blocked by Stall.
func (i *Injector) Unstall() {
	i.mu.Lock()
	i.unstallLocked()
	i.mu.Unlock()
}

func (i *Injector) unstallLocked() {
	if i.stalled {
		i.stalled = false
		close(i.unstall)
	}
}

// CutAfter arms a byte budget: once n more bytes have crossed wrapped
// connections (reads and writes combined), the connection that crosses
// the budget is closed abruptly — a mid-frame reset. Pass n=0 to cut on
// the very next I/O.
func (i *Injector) CutAfter(n int64) {
	i.mu.Lock()
	i.cutBudget = n
	i.mu.Unlock()
}

// TruncateNextWrite makes the next Write send only half its bytes and
// then close the connection, leaving a torn frame on the peer's stream.
func (i *Injector) TruncateNextWrite() {
	i.mu.Lock()
	i.truncNext = true
	i.mu.Unlock()
}

// Partition severs the link: every currently wrapped connection is closed
// immediately, and until Heal every newly accepted or dialed connection
// is closed on arrival. This is the SIGKILL/fabric-loss simulation — the
// peer observes resets, never graceful shutdowns.
func (i *Injector) Partition() {
	i.mu.Lock()
	i.partitioned = true
	conns := make([]*Conn, 0, len(i.conns))
	for c := range i.conns {
		conns = append(conns, c)
	}
	i.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal ends a Partition; existing connections stay dead, new ones pass.
// It also releases any active Stall: a healed link must carry fresh dials,
// and a stall gate that outlives the partition would silently wedge them
// (tests used to need a manual Unstall before Heal).
func (i *Injector) Heal() {
	i.mu.Lock()
	i.partitioned = false
	i.unstallLocked()
	i.mu.Unlock()
}

// Conn wraps c; all I/O flows through the injector's faults.
func (i *Injector) Conn(c net.Conn) net.Conn {
	fc := &Conn{Conn: c, inj: i, closed: make(chan struct{})}
	i.mu.Lock()
	dead := i.partitioned
	if !dead {
		i.conns[fc] = struct{}{}
	}
	i.mu.Unlock()
	if dead {
		fc.Close()
	}
	return fc
}

// Listener wraps ln so every accepted connection is fault-injected.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: i}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Conn(c), nil
}

// Conn is one fault-injected connection.
type Conn struct {
	net.Conn
	inj    *Injector
	once   sync.Once
	closed chan struct{}
}

// Close closes the underlying connection and unblocks stalled I/O.
func (c *Conn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		close(c.closed)
		c.inj.mu.Lock()
		delete(c.inj.conns, c)
		c.inj.mu.Unlock()
	})
	return err
}

// gate applies delay and stall; it returns false if the conn closed while
// blocked.
func (c *Conn) gate(delay time.Duration, stallCh chan struct{}) bool {
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
			return false
		}
	}
	if stallCh != nil {
		select {
		case <-stallCh:
		case <-c.closed:
			return false
		}
	}
	return true
}

// faults snapshots the injector state relevant to one I/O.
func (c *Conn) faults(write bool) (delay time.Duration, stallCh chan struct{}) {
	c.inj.mu.Lock()
	defer c.inj.mu.Unlock()
	if write {
		delay = c.inj.writeDelay
	} else {
		delay = c.inj.readDelay
	}
	if c.inj.stalled {
		stallCh = c.inj.unstall
	}
	return delay, stallCh
}

// spend consumes n bytes of the cut budget; it reports whether the budget
// was crossed (and disarms it), in which case the caller must reset.
func (c *Conn) spend(n int) bool {
	c.inj.mu.Lock()
	defer c.inj.mu.Unlock()
	if c.inj.cutBudget < 0 {
		return false
	}
	c.inj.cutBudget -= int64(n)
	if c.inj.cutBudget <= 0 {
		c.inj.cutBudget = -1
		return true
	}
	return false
}

func (c *Conn) Read(b []byte) (int, error) {
	delay, stallCh := c.faults(false)
	if !c.gate(delay, stallCh) {
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(b)
	if n > 0 && c.spend(n) {
		c.Close()
		return n, nil // deliver what crossed the budget, then the conn is gone
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	delay, stallCh := c.faults(true)
	if !c.gate(delay, stallCh) {
		return 0, net.ErrClosed
	}
	c.inj.mu.Lock()
	trunc := c.inj.truncNext
	c.inj.truncNext = false
	c.inj.mu.Unlock()
	if trunc {
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Close()
		return n, net.ErrClosed
	}
	// Budget the write before issuing it so a cut lands mid-frame: send
	// only the bytes the budget allows, then reset.
	c.inj.mu.Lock()
	budget := c.inj.cutBudget
	if budget >= 0 && budget < int64(len(b)) {
		c.inj.cutBudget = -1
	} else if budget >= 0 {
		c.inj.cutBudget -= int64(len(b))
	}
	c.inj.mu.Unlock()
	if budget >= 0 && budget < int64(len(b)) {
		n, _ := c.Conn.Write(b[:budget])
		c.Close()
		return n, net.ErrClosed
	}
	return c.Conn.Write(b)
}
