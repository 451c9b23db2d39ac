# DmRPC reproduction — standard workflows.

GO ?= go

.PHONY: all build vet check depguard surface size test test-short bench bench-smoke pool-demo load-demo load-smoke experiments experiments-full fuzz fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast correctness gate: static checks plus the live-path, wire-protocol,
# and fault-injection packages under the race detector (the striped DM
# server's concurrency — and the chaos/lease-reaping tests — are only
# trustworthy raced).
check: vet depguard surface
	$(GO) test -race ./internal/live/... ./internal/liverpc/... ./internal/dmwire/... ./internal/faultnet/... ./internal/pool/... ./internal/loadgen/... ./internal/registry/... ./internal/migrate/... ./internal/refcache/...

# Dependency guard: the DM server binary must not link the simulated
# stack's argument layer. internal/live imported internal/core only for a
# superseded Arg shim; this keeps it from coming back. (sim, simnet,
# transport and rpc still ride in through internal/dm — ROADMAP's "one DM
# server, two hosts" item.)
depguard:
	@if $(GO) list -deps ./cmd/dmserverd | grep -qx 'repro/internal/core'; then \
		echo 'depguard: cmd/dmserverd links repro/internal/core' >&2; exit 1; fi

# Exported-surface lint: every exported name of the live stack has a
# caller outside its package, or an allowlist entry naming the caller it
# is kept for (surface_test.go).
surface:
	$(GO) test -count=1 -run '^TestExportedSurface$$' .

# The two size numbers ROADMAP's "exported surface" aim tracks (and every
# CHANGES.md line records): non-test lines and exported declarations of
# the live stack.
size:
	@$(GO) run scripts/size.go internal/live internal/pool internal/liverpc internal/dmwire

# Full suite: unit, property, invariant and paper-shape tests (~4 min),
# gated on the race-checked hot path and a brief fuzz pass over every
# wire-facing decoder.
test: check fuzz-smoke
	$(GO) test ./...

# Short mode skips the heavy simulation shape tests (~10 s).
test-short:
	$(GO) test -short ./...

# One benchmark per paper table/figure plus package micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every live, liverpc and pool benchmark: proves the
# harnesses still build, run, and verify their results — cheap enough to
# gate CI on. The benchmarks are ad-hoc tools (`go test -bench`); the
# end-to-end referee is ./benchmark (BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x ./internal/live ./internal/liverpc ./internal/pool

# Launch a local K-shard cluster (dmserverd on sequential ports) and run
# dmctl pool smoke traffic against it. K and BASE_PORT are overridable:
#   make pool-demo K=4 BASE_PORT=7800
pool-demo: build
	./scripts/pool-demo.sh $(or $(K),3) $(or $(BASE_PORT),7740)

# Launch a K-shard cluster as real dmserverd processes, attach the dmload
# harness (socialnet/kv/blob mixes), then run the in-process kill-a-shard
# schedule at R=2 and require zero payload loss. Overridable:
#   make load-demo K=4 BASE_PORT=7900 DURATION=10s
load-demo: build
	./scripts/dmload-demo.sh $(or $(K),3) $(or $(BASE_PORT),7860)

# Two-second load-harness pass over an in-process single shard: proves
# cmd/dmload end to end (cluster launch, socialnet + kv scenarios, JSON
# report) — cheap enough to gate CI on. The shard gets 256 MiB: composed
# posts accumulate for the whole window (timelines retain their refs),
# and a fast host can push ~30 MiB/s of media through compose — the
# default 64 MiB shard OOMs mid-window and fails the smoke spuriously.
load-smoke: build
	$(GO) run ./cmd/dmload -launch 1 -pages 65536 -scenarios socialnet,kv -workers 4 \
		-warmup 300ms -duration 2s -out /dev/null

# Regenerate every figure as text tables (quick windows).
experiments:
	$(GO) run ./cmd/dmrpc-bench -experiment all -scale quick

# Paper-scale windows; expect tens of minutes.
experiments-full:
	$(GO) run ./cmd/dmrpc-bench -experiment all -scale full

# 5-second smoke pass per wire-facing fuzz target; cheap enough to gate
# make test on, catching framing/codec regressions early.
fuzz-smoke:
	$(GO) test ./internal/live -run='^$$' -fuzz=FuzzReadFrame -fuzztime=5s
	$(GO) test ./internal/live -run='^$$' -fuzz=FuzzServerDispatch -fuzztime=5s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=5s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzStatusRoundTrip -fuzztime=5s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzCallEnvelope -fuzztime=5s

# Brief fuzzing passes over every wire-facing decoder.
fuzz:
	$(GO) test ./internal/live -run='^$$' -fuzz=FuzzReadFrame -fuzztime=30s
	$(GO) test ./internal/live -run='^$$' -fuzz=FuzzServerDispatch -fuzztime=30s
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzDecodeHeader -fuzztime=30s
	$(GO) test ./internal/rpc -run='^$$' -fuzz=FuzzDec -fuzztime=30s
	$(GO) test ./internal/dm -run='^$$' -fuzz=FuzzUnmarshalRef -fuzztime=30s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=30s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzStatusRoundTrip -fuzztime=30s
	$(GO) test ./internal/dmwire -run='^$$' -fuzz=FuzzCallEnvelope -fuzztime=30s

clean:
	$(GO) clean ./...
