package live

import (
	"slices"
	"testing"
	"time"

	"repro/internal/dmwire"
)

// TestDedupPruneOldestFirst: a sweep drops completed entries past the
// retention window oldest first and stops at the first entry still in
// flight or still inside the window, keeping the table and its
// insertion-order list in step (including emptying and refilling it); a
// later sweep picks up what an in-flight entry held back.
func TestDedupPruneOldestFirst(t *testing.T) {
	tbl := &dedupTable{}
	tok := func(seq uint64) dmwire.Token { return dmwire.Token{CID: 1, Seq: seq} }
	ok := func() (byte, []byte) { return dmwire.StatusOK, nil }
	held := func(now time.Time) []uint64 {
		t.Helper()
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		tbl.pruneLocked(now)
		var seqs []uint64
		for e := tbl.oldest; e != nil; e = e.next {
			seqs = append(seqs, e.tok.Seq)
		}
		if len(seqs) != len(tbl.m) {
			t.Fatalf("order list holds %v, table %d entries", seqs, len(tbl.m))
		}
		return seqs
	}

	tbl.run(tok(1), ok)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tbl.run(tok(2), func() (byte, []byte) {
			close(started)
			<-release
			return dmwire.StatusOK, nil
		})
	}()
	<-started
	tbl.run(tok(3), ok)

	later := time.Now().Add(2 * time.Minute)
	if got := held(later); !slices.Equal(got, []uint64{2, 3}) {
		t.Fatalf("with 2 in flight the sweep kept %v, want [2 3]", got)
	}
	close(release)
	<-done
	if got := held(later); len(got) != 0 {
		t.Fatalf("after 2 completed the sweep kept %v, want none", got)
	}
	tbl.run(tok(4), ok)
	if got := held(time.Now()); !slices.Equal(got, []uint64{4}) {
		t.Fatalf("an entry inside the window was swept: kept %v", got)
	}
	// A swept token is forgotten: it executes again.
	ran := false
	tbl.run(tok(1), func() (byte, []byte) { ran = true; return dmwire.StatusOK, nil })
	if !ran {
		t.Fatal("a pruned token replayed instead of executing")
	}
}
