#!/bin/sh
# dmload-demo.sh K BASE_PORT — launch a local K-shard DM cluster as real
# dmserverd processes and drive it with the dmload harness in ATTACH
# mode: the paper's socialnet mix (10/60/30 compose/read-home/read-user),
# YCSB-style kv, and the blob sweep,
# each for a few seconds, with the JSON report printed at the end. The
# in-process fault-schedule path (-kill-shard) is exercised separately
# in a -launch'ed run, since attached processes are outside the
# harness's reach. Invoked by `make load-demo` (K=3 BASE_PORT=7860).
set -eu

K=${1:-3}
BASE_PORT=${2:-7860}
DURATION=${DURATION:-5s}
GO=${GO:-go}

tmp=$(mktemp -d)
trap 'kill $pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

$GO build -o "$tmp/dmserverd" ./cmd/dmserverd
$GO build -o "$tmp/dmctl" ./cmd/dmctl
$GO build -o "$tmp/dmload" ./cmd/dmload

pids=""
servers=""
i=0
while [ "$i" -lt "$K" ]; do
    port=$((BASE_PORT + i))
    "$tmp/dmserverd" -listen "127.0.0.1:$port" -shard-id "$i" \
        -pages 16384 -lease-ttl 2s >"$tmp/shard$i.log" 2>&1 &
    pids="$pids $!"
    servers="$servers${servers:+,}127.0.0.1:$port"
    i=$((i + 1))
done

# Wait for every shard to accept connections.
i=0
while [ "$i" -lt "$K" ]; do
    port=$((BASE_PORT + i))
    tries=0
    until "$tmp/dmctl" -server "127.0.0.1:$port" stage -text ping >/dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "$tries" -gt 50 ]; then
            echo "shard $i on port $port never came up:" >&2
            cat "$tmp/shard$i.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    i=$((i + 1))
done

echo "== $K-shard cluster up on $servers =="
"$tmp/dmload" -shards "$servers" -replicas 2 \
    -scenarios socialnet,kv,blob -workers 8 \
    -warmup 1s -duration "$DURATION" \
    -out "$tmp/report.json"
echo "== attach-mode report =="
cat "$tmp/report.json"

echo "== kill-a-shard run (in-process cluster, R=2) =="
"$tmp/dmload" -launch 3 -replicas 2 -scenarios kv -workers 8 \
    -warmup 500ms -duration "$DURATION" -repair-interval 300ms \
    -kill-shard 1 -kill-at 1s -restart-after 1s \
    -out "$tmp/fault.json"
echo "== fault report =="
cat "$tmp/fault.json"

# The bar the demo exists to hold: reads during failover may retry, but
# none may return wrong bytes.
if grep -q '"payload-loss": 0' "$tmp/fault.json"; then
    echo "== load demo complete: zero payload loss under failover =="
else
    echo "load demo FAILED: payload loss detected" >&2
    exit 1
fi
