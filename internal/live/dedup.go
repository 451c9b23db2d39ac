package live

import (
	"sync"
	"time"

	"repro/internal/dmwire"
)

// dedupTable gives tokened (non-idempotent) requests at-most-once
// execution across client retries: the first arrival of a token executes
// the handler and records the response; any duplicate — a retransmission
// after a lost response, a second attempt racing the first over a fresh
// connection — waits for that execution and replays the recorded bytes
// instead of applying the mutation again (DESIGN.md §D8).
//
// Entries are pruned opportunistically on insert once their completion is
// older than the retention window; retries arrive within a call's overall
// deadline, which is orders of magnitude shorter.
type dedupTable struct {
	mu sync.Mutex
	m  map[dmwire.Token]*dedupEntry
	// oldest and newest end the entries' insertion-order list. A sweep
	// pops expired entries off the old end and stops at the first one
	// still in flight or inside the window, so it costs what it drops,
	// not what the table holds: a full scan under mu stalled every tokened
	// request on the node for milliseconds once a write-heavy load had
	// filled the window.
	oldest, newest *dedupEntry
	inserts        int
}

type dedupEntry struct {
	done     chan struct{} // closed when status/resp are final
	status   byte
	resp     []byte // private copy, owned by the table
	doneAtNS int64  // completion time, 0 while in flight
	tok      dmwire.Token
	next     *dedupEntry // the next-newer entry, guarded by the table's mu
}

// prunePeriod is how many inserts pass between retention sweeps.
const prunePeriod = 1024

// dedupRetention is how long a completed tokened mutation's response
// stays replayable.
const dedupRetention = 60 * time.Second

// run executes fn under the token's at-most-once guarantee. A zero token
// bypasses the table. cached reports that resp is table-owned replayed
// memory, which the caller must not recycle into the buffer pool.
func (t *dedupTable) run(tok dmwire.Token, fn func() (byte, []byte)) (status byte, resp []byte, cached bool) {
	if tok.IsZero() {
		status, resp = fn()
		return status, resp, false
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[dmwire.Token]*dedupEntry)
	}
	if e, dup := t.m[tok]; dup {
		t.mu.Unlock()
		<-e.done
		return e.status, e.resp, true
	}
	e := &dedupEntry{done: make(chan struct{}), status: dmwire.StatusErr, tok: tok}
	t.m[tok] = e
	if t.newest == nil {
		t.oldest = e
	} else {
		t.newest.next = e
	}
	t.newest = e
	t.inserts++
	if t.inserts%prunePeriod == 0 {
		t.pruneLocked(time.Now())
	}
	t.mu.Unlock()

	// If fn panics the entry still completes (as StatusErr) so duplicate
	// waiters are never wedged.
	defer func() {
		e.doneAtNS = time.Now().UnixNano()
		close(e.done)
	}()
	status, resp = fn()
	e.status = status
	e.resp = append([]byte(nil), resp...)
	return status, resp, false
}

// pruneLocked drops the oldest entries whose execution completed before
// the retention window, up to the first that did not; in-flight entries
// are never dropped. An entry that finished before an older one waits for
// it — retained a little longer, never less.
func (t *dedupTable) pruneLocked(now time.Time) {
	cutoff := now.Add(-dedupRetention).UnixNano()
	for e := t.oldest; e != nil; e = e.next {
		select {
		case <-e.done:
			if e.doneAtNS >= cutoff {
				return
			}
		default:
			return // still in flight
		}
		delete(t.m, e.tok)
		t.oldest = e.next
		if t.oldest == nil {
			t.newest = nil
		}
	}
}

// size reports the number of live entries (tests, monitoring).
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
