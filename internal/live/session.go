package live

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmwire"
)

// Sessions: at-most-once execution and liveness, after eRPC (DESIGN.md
// §D8). Every Node is one caller session at a time: a random odd ID and
// sessionWindow slots. A call takes a free slot and stamps every attempt
// with the session ID and one seq; seq % sessionWindow names the slot,
// and seq grows by sessionWindow each time the slot is reused. A serving
// node keeps, per session and slot, only the last seq and its response.
// A higher seq runs and releases that response (a caller reuses a slot
// only once its call is over: eRPC's implicit ack), an equal seq waits
// for the run and replays its response, and a lower one is refused with
// dmwire.ErrStale.
//
// The serving node's session is also its only record of the caller's
// liveness. A DM server's register attaches the caller's DM state to it
// (dmSession), and one use-count sweep expires sessions: a registered
// one after the server's lease TTL with no request, an unregistered one
// after sessionIdle. Expiring a registered session reaps its DM state.

const (
	// sessionWindow is the number of slots in one caller session: the
	// most calls one Node has in flight at once.
	sessionWindow = 256
	// sessionIdle is how long a serving node keeps an unregistered
	// session nothing has used, far beyond any call's deadline.
	sessionIdle = 60 * time.Second
	// stampSize is the wire width of a request's stamp: u64 session, u64 seq.
	stampSize = 16
)

// stamp names one call's session and slot; every attempt carries it.
type stamp struct{ session, seq uint64 }

// callerSession is a Node's own session.
type callerSession struct {
	id  uint64
	sem chan struct{} // one token per slot taken, so a full window blocks
	mu  sync.Mutex
	// free holds each free slot's next seq. It is a stack: a session with
	// few calls in flight keeps reusing the same few slots, so the server
	// releases their responses promptly.
	free  []uint64
	slots [sessionWindow]callerSlot
}

// callerSlot is one slot's call state, owned by the call holding the slot
// from acquire to release and reused by every later call on it, so a call
// allocates none of it (eRPC preallocates per-slot buffers the same way).
// ch receives the response of the attempt in flight; a nil payload means
// its connection died. Whatever drops a registration — a timed-out await,
// a failed send — drains ch before the slot moves on, so the next call
// never receives a stale answer. timer bounds one attempt's wait; an
// await that returns before it fires stops it and takes its tick.
type callerSlot struct {
	st    stamp
	ch    chan []byte
	timer *time.Timer
}

func newCallerSession() *callerSession {
	s := &callerSession{id: rand.Uint64() | 1, sem: make(chan struct{}, sessionWindow), free: make([]uint64, sessionWindow)}
	for i := range s.free {
		s.free[i] = 2*sessionWindow - 1 - uint64(i) // slot 0 on top
	}
	return s
}

// acquire takes a free slot, waiting no longer than deadline (zero:
// unbounded), and stamps it for the call. A seq is never below
// sessionWindow.
func (s *callerSession) acquire(deadline time.Time) (*callerSlot, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		var timeC <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			timeC = t.C
		}
		select {
		case s.sem <- struct{}{}:
		case <-timeC:
			return nil, fmt.Errorf("live: all %d session slots busy: %w", sessionWindow, ErrDeadline)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	sl := &s.slots[seq%sessionWindow]
	sl.st = stamp{s.id, seq}
	if sl.ch == nil {
		sl.ch = make(chan []byte, 1)
	}
	return sl, nil
}

// release frees sl once its call is over: done, failed or abandoned.
func (s *callerSession) release(sl *callerSlot) {
	s.mu.Lock()
	s.free = append(s.free, sl.st.seq+sessionWindow)
	s.mu.Unlock()
	<-s.sem
}

// arm starts the slot's timer for one attempt and returns its channel:
// nil, which never fires, when deadline is zero.
func (sl *callerSlot) arm(deadline time.Time) <-chan time.Time {
	if deadline.IsZero() {
		return nil
	}
	if sl.timer == nil {
		sl.timer = time.NewTimer(time.Until(deadline))
	} else {
		sl.timer.Reset(time.Until(deadline))
	}
	return sl.timer.C
}

// disarm stops the timer of an attempt whose tick was not received, and
// takes the tick if it fired anyway, so the next arm starts clean. Under
// the pre-Go 1.23 timer semantics go.mod selects, a Stop that reports
// false leaves the tick in C or on its way there, so the receive blocks
// until it lands. timeC is what arm returned: nil means no timer ran.
func (sl *callerSlot) disarm(timeC <-chan time.Time) {
	if timeC != nil && !sl.timer.Stop() {
		<-timeC
	}
}

// drain recycles a response that raced into ch before its registration
// was dropped. The caller has already removed the registration under the
// connection's lock, so nothing more can arrive.
func (sl *callerSlot) drain() {
	select {
	case payload := <-sl.ch:
		putBuf(payload)
	default:
	}
}

// serverSession is a serving node's record of one caller session.
type serverSession struct {
	id   uint64
	gone atomic.Bool // dropped by the sweep: look it up again
	// dm is the DM state register attached: nil on every session that
	// has not registered with a DM server.
	dm   atomic.Pointer[dmSession]
	mu   sync.Mutex
	done sync.Cond // on mu; broadcast when a slot's run ends
	uses uint64    // requests admitted
	// seenUses and activeAt belong to the idle sweep: uses as the last
	// sweep saw it, and when a sweep last saw it change.
	seenUses uint64
	activeAt time.Time
	slots    [sessionWindow]serverSlot
}

// serverSlot is one slot's last request and its response. hold is the
// pooled buffer resp lives in (for a slow handler, the request frame resp
// may alias), recycled when the slot moves on; lent marks it as still
// being written by its executor, which then recycles it itself.
type serverSlot struct {
	seq    uint64
	busy   bool // seq's handler has not returned
	lent   bool
	status byte
	resp   []byte
	hold   []byte
}

// admit claims seq's slot in s, or in the session that replaced s if the
// sweep dropped it, and returns the session it used. run means the
// caller runs the request, then publishes its response. Otherwise status
// and resp answer it — a private copy of the slot's response, or the
// stale refusal — and resp is the caller's to recycle.
func (n *Node) admit(s *serverSession, seq uint64) (_ *serverSession, run bool, status byte, resp []byte) {
	s.mu.Lock()
	sl := &s.slots[seq%sessionWindow]
	for seq == sl.seq && sl.busy && !s.gone.Load() {
		s.done.Wait()
	}
	if s.gone.Load() {
		s.mu.Unlock()
		return n.admit(n.sessions.get(s.id), seq)
	}
	s.uses++
	var old []byte
	switch {
	case seq > sl.seq:
		if !sl.lent {
			old = sl.hold
		}
		*sl = serverSlot{seq: seq, busy: true}
		run = true
	case seq == sl.seq && seq >= sessionWindow:
		status, resp = sl.status, append(getBuf(len(sl.resp))[:0], sl.resp...)
	default:
		status, resp = dmwire.StatusStale, []byte(dmwire.ErrStale.Error())
	}
	s.mu.Unlock()
	putBuf(old)
	return s, run, status, resp
}

// publish records seq's response in its slot and wakes the duplicates
// waiting for it. It reports whether the slot kept resp, lending hold
// back for the write; the write ends with settle either way.
func (s *serverSession) publish(seq uint64, status byte, resp, hold []byte) (kept bool) {
	s.mu.Lock()
	if sl := &s.slots[seq%sessionWindow]; sl.seq == seq && sl.busy {
		*sl = serverSlot{seq: seq, lent: hold != nil, status: status, resp: resp, hold: hold}
		kept = true
	}
	s.mu.Unlock()
	s.done.Broadcast()
	return kept
}

// settle ends the write of seq's response: hold stays with the slot while
// the slot still holds seq, and is recycled otherwise.
func (s *serverSession) settle(seq uint64, hold []byte, kept bool) {
	if kept && hold != nil {
		s.mu.Lock()
		sl := &s.slots[seq%sessionWindow]
		kept = sl.seq == seq && !s.gone.Load()
		sl.lent = sl.lent && !kept
		s.mu.Unlock()
	}
	if !kept {
		putBuf(hold)
	}
}

// sessionTable is a serving node's caller sessions by ID.
type sessionTable struct {
	mu sync.Mutex
	m  map[uint64]*serverSession
	// lease is how long a registered session lives with no request (0:
	// until the server closes), and reap releases an expired one's DM
	// state. A DM server sets both.
	lease time.Duration
	reap  func(*dmSession)
}

// get returns session id, creating it on first sight. A new session runs
// the sweep first, so sessions come and go together.
func (t *sessionTable) get(id uint64) *serverSession {
	t.mu.Lock()
	s := t.m[id]
	var reaped []*dmSession
	if s == nil {
		now := time.Now()
		reaped = t.sweepLocked(now)
		if t.m == nil {
			t.m = make(map[uint64]*serverSession)
		}
		s = &serverSession{id: id, activeAt: now}
		s.done.L = &s.mu
		t.m[id] = s
	}
	t.mu.Unlock()
	t.release(reaped)
	return s
}

// sweep runs the sweep as if the time were now.
func (t *sessionTable) sweep(now time.Time) {
	t.mu.Lock()
	reaped := t.sweepLocked(now)
	t.mu.Unlock()
	t.release(reaped)
}

// release reaps the DM state of expired sessions, outside the table lock.
func (t *sessionTable) release(reaped []*dmSession) {
	for _, d := range reaped {
		t.reap(d)
	}
}

// sweepLocked compares each session's use count with the last sweep's: a
// changed count marks the session active now, and one unchanged for
// longer than its TTL drops the session, recycles the responses it kept
// and returns its DM state for reaping.
func (t *sessionTable) sweepLocked(now time.Time) (reaped []*dmSession) {
	for id, s := range t.m {
		s.mu.Lock()
		d := s.dm.Load()
		ttl := sessionIdle
		if d != nil {
			ttl = t.lease
		}
		if s.uses != s.seenUses {
			s.seenUses, s.activeAt = s.uses, now
		} else if ttl > 0 && now.Sub(s.activeAt) > ttl {
			s.gone.Store(true)
			for i := range s.slots {
				if !s.slots[i].lent {
					putBuf(s.slots[i].hold)
				}
				s.slots[i] = serverSlot{}
			}
			delete(t.m, id)
			if d != nil {
				reaped = append(reaped, d)
			}
		}
		s.mu.Unlock()
		s.done.Broadcast()
	}
	return reaped
}
