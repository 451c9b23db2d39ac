package repro

import (
	"testing"

	"repro/internal/surface"
)

// surfacePackages are the live stack's packages, the ones `make size`
// measures.
var surfacePackages = []string{"internal/live", "internal/pool", "internal/liverpc", "internal/dmwire"}

// surfaceKept lists the exported names and struct fields of
// surfacePackages that no non-test file outside their own package
// mentions, but that stay exported, each with the caller it is kept for.
var surfaceKept = map[string]string{
	"live.Handler":           "parameter type of the exported Node.Handle",
	"liverpc.Handler":        "parameter type of the exported Service.Handle",
	"liverpc.LocatedDM":      "asserted by benchmark/benchmark_test.go",
	"liverpc.ReplicatedDM":   "asserted by benchmark/benchmark_test.go",
	"liverpc.BufDM":          "asserted by benchmark/benchmark_test.go",
	"liverpc.Ctx.Consume":    "handler API of a service that is a payload's last reader; the planned call_consume ladder rung calls it",
	"liverpc.Ctx.Adopt":      "handler API of a service that keeps a payload; the planned call_adopt ladder rung calls it",
	"dmwire.Arg":             "type constraint of the exported AppendCall and AppendReturn",
	"dmwire.MaxCallArgs":     "the argument cap liverpc's callers are held to",
	"dmwire.ErrTooManyArgs":  "the error liverpc's callers receive past MaxCallArgs",
	"pool.RebalanceResult":   "returned by Rebalance to cmd/dmctl",
	"live.NodeConfig.Dialer": "the seam faultnet's chaos tests route connections through",
	"pool.Config.OnTopology": "the event hook the pool chaos tests wait on",
}

// TestExportedSurface fails on an exported name or struct field of the
// live stack that no other package uses: unexport it, delete it, or add
// it to surfaceKept with the caller it is kept for. A setting no caller
// sets is a constant.
func TestExportedSurface(t *testing.T) {
	var pkgs []surface.Package
	for _, dir := range surfacePackages {
		p, err := surface.Load(".", dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	unused, err := surface.Unused(".", pkgs)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, name := range unused {
		listed[name] = true
		if _, ok := surfaceKept[name]; !ok {
			t.Errorf("%s is exported, but no non-test file outside its package uses it", name)
		}
	}
	for name := range surfaceKept {
		if !listed[name] {
			t.Errorf("surfaceKept lists %s, which is gone or now has a caller: drop the entry", name)
		}
	}
}
