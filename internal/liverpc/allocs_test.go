//go:build !race

package liverpc

import (
	"bytes"
	"testing"

	"repro/internal/apps"
)

// Allocation budgets of a liverpc hop (DESIGN.md §D9). Each counts the
// heap allocations of one operation across the whole process — client,
// every service and the DM server together — as the benchmark ladder
// does. Outside them only application code allocates: a handler's result
// slice, U64's 8 bytes, Fetch's fresh buffer, and a top-level call's
// results. The race runtime allocates on its own, hence the build tag;
// CI runs these without -race.

// TestChainByValueAllocs: a by-value 3-hop ChainClient.Do costs at most
// six allocations: the terminal's result slice and U64, the client's
// result slice and its inline bytes, and nothing per hop — the envelope
// is encoded on the stack, decoded into pooled call state, and the
// response is built in a pooled buffer the serving slot recycles.
func TestChainByValueAllocs(t *testing.T) {
	d := deployChain(t, 3, "", Config{ForceInline: true})
	payload := bytes.Repeat([]byte{3}, 32<<10)
	want := apps.Aggregate(payload)
	do := func() {
		got, err := d.Client.Do(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("chain sum %d, want %d", got, want)
		}
	}
	do()
	got := testing.AllocsPerRun(200, do)
	t.Logf("by-value 3-hop ChainClient.Do: %v allocs", got)
	if got > 6 {
		t.Fatalf("by-value 3-hop ChainClient.Do: %v allocs, want <= 6", got)
	}
}

// TestConsumeHandOffAllocs: one 4 KiB hand-off — Stage, the call, the
// service's Ctx.Consume and its U64 answer — costs at most eight
// allocations: the DM server's frame list and ref entry, the handler's
// result slice and U64, the client's result slice and its inline bytes,
// and slack for two. ROADMAP item 2(c)'s call_consume target is 30; the
// budget is tighter because a hop that still copied its envelope through
// intermediate slices made 15.
func TestConsumeHandOffAllocs(t *testing.T) {
	_, addr := startDM(t, smallDM())
	s := NewService("sink", dialDM(t, addr), Config{})
	s.Handle("consume", func(ctx *Ctx, args []Payload) ([]Payload, error) {
		b, err := ctx.Consume(args[0])
		if err != nil {
			return nil, err
		}
		n := b.Len()
		b.Release()
		return []Payload{U64(uint64(n))}, nil
	})
	svcAddr := serveService(t, s)
	c := NewCaller(dialDM(t, addr), Config{})
	defer c.Close()
	data := make([]byte, 4096)
	handOff := func() {
		res, err := c.handOff(svcAddr, "consume", data)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := res[0].AsU64(); err != nil || n != uint64(len(data)) {
			t.Fatalf("consumed %d bytes (%v), want %d", n, err, len(data))
		}
	}
	handOff()
	got := testing.AllocsPerRun(200, handOff)
	t.Logf("4 KiB stage + call + Ctx.Consume: %v allocs", got)
	if got > 8 {
		t.Fatalf("4 KiB stage + call + Ctx.Consume: %v allocs, want <= 8", got)
	}
}
