#!/bin/sh
# Serving benchmark: boot pbtree-server, run the same mixed load twice
# at an equal connection count — sequential (window=1, one round trip
# at a time per connection) and pipelined (window=16 outstanding calls
# per connection over protocol v2) — and write both loadgen JSON
# reports to the file named by $1 (default BENCH_serve.json) as
# {"sequential": ..., "pipelined": ..., "overhead_off": ...,
# "overhead_on": ...}.
#
# The server runs with lifecycle stage tracing on (the default), so
# both reports carry the server_stages attribution tables: per op
# class, how the server-side time splits across decode / admission /
# queue_wait / apply / exec / resp_queue / write. The
# pipelined-vs-sequential share shift names the stage behind the
# pipelining p99 inflation (EXPERIMENTS.md).
#
# The overhead_off/overhead_on pair is the tracing-cost gate: the PR 6
# BENCH_matrix oltp-point cell (conns 4, window 8, zipf point reads)
# re-run against a fresh server with -stages=false and again with the
# default tracing on. The off run must stay within 2% of the on run
# (and of the committed BENCH_matrix baseline on the same hardware).
#
# The scale_<plane>_<conns> grid is the connection-scaling sweep
# (EXPERIMENTS.md): the same mixed load at 64/256/1024 connections
# against the worker-pool data plane and the legacy
# goroutine-per-request plane (-data-plane, DESIGN.md §15). The
# comparison to read off is the admission-stage share in
# server_stages as connections grow: the goroutine plane's execution
# concurrency is conns x window (scheduler queueing, filed under
# admission), the pool plane's is -pool workers.
#
# The streaming run drives the olap-stream scenario (70% streaming
# scans over SCANOPEN/SCANNEXT cursors) against the pool plane.
#
# The single_node_reads/replica_set_reads pair is the read-scaling
# measurement (DESIGN.md §13): the same GET-only Zipf load at the same
# total connection count against one server, then against a
# 1-primary+2-replica set with the connections round-robined across
# all three (-replicas), after the replicas have caught up. The
# connection count is chosen to saturate a single node, so the pair
# quantifies what read replicas buy. Caveat: on a single-core host the
# set cannot exceed one node (all processes share the core); the pair
# then measures the fan-out overhead instead, and the headroom only
# materializes with real CPUs per replica.
set -eu

out=${1:-BENCH_serve.json}
tmp=$(mktemp -d)
port=$((17000 + $$ % 1000))
addr="127.0.0.1:$port"
keys=1000000
conns=4
mix="-skew zipf -get 70 -mget 15 -scan 5 -put 10"
oltp_keys=200000

cleanup() {
    [ -n "${srv:-}" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pbtree-server" ./cmd/pbtree-server
go build -o "$tmp/pbtree-loadgen" ./cmd/pbtree-loadgen

wait_reachable() {
    nkeys=$1
    ok=0
    for _ in $(seq 1 50); do
        if "$tmp/pbtree-loadgen" -addr "$addr" -keys "$nkeys" -conns 1 \
            -duration 100ms >/dev/null 2>&1; then
            ok=1
            break
        fi
        kill -0 "$srv" 2>/dev/null || { echo "bench-serve: server died:"; cat "$tmp/server.log"; exit 1; }
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "bench-serve: server never became reachable"; cat "$tmp/server.log"; exit 1; }
}

stop_server() {
    kill -TERM "$srv"
    wait "$srv" || true
    srv=
}

"$tmp/pbtree-server" -addr "$addr" -keys "$keys" \
    >"$tmp/server.log" 2>&1 &
srv=$!
wait_reachable "$keys"

echo "bench-serve: sequential (window=1)"
# shellcheck disable=SC2086
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns "$conns" \
    -window 1 -duration 5s -stage-table $mix >"$tmp/sequential.json"
echo "bench-serve: pipelined (window=16)"
# shellcheck disable=SC2086
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns "$conns" \
    -window 16 -duration 5s -stage-table $mix >"$tmp/pipelined.json"
stop_server

# Tracing-overhead gate: the BENCH_matrix oltp-point cell against a
# fresh server with stage tracing off, then on.
for mode in off on; do
    if [ "$mode" = off ]; then flags="-stages=false"; else flags=""; fi
    # shellcheck disable=SC2086
    "$tmp/pbtree-server" -addr "$addr" -keys "$oltp_keys" $flags \
        >"$tmp/server.log" 2>&1 &
    srv=$!
    wait_reachable "$oltp_keys"
    echo "bench-serve: overhead gate, tracing $mode"
    "$tmp/pbtree-loadgen" -addr "$addr" -keys "$oltp_keys" -conns 4 \
        -window 8 -duration 3s -scenario oltp-point >"$tmp/overhead_$mode.json"
    stop_server
done

# Connection scaling: the mixed load at growing connection counts
# against each data plane. Window 4 keeps per-connection read-ahead
# modest so the sweep varies exactly one thing: how many connections
# the plane must multiplex.
for plane in pool goroutine; do
    "$tmp/pbtree-server" -addr "$addr" -keys "$oltp_keys" \
        -data-plane "$plane" >"$tmp/server.log" 2>&1 &
    srv=$!
    wait_reachable "$oltp_keys"
    for nconns in 64 256 1024; do
        echo "bench-serve: connection scaling, $plane plane, $nconns conns"
        # shellcheck disable=SC2086
        "$tmp/pbtree-loadgen" -addr "$addr" -keys "$oltp_keys" \
            -conns "$nconns" -window 4 -duration 3s $mix \
            >"$tmp/scale_${plane}_${nconns}.json"
    done
    stop_server
done

# Streaming scan: the olap-stream scenario (SCANOPEN/SCANNEXT
# cursors) against the default pool plane.
"$tmp/pbtree-server" -addr "$addr" -keys "$oltp_keys" >"$tmp/server.log" 2>&1 &
srv=$!
wait_reachable "$oltp_keys"
echo "bench-serve: streaming scan (olap-stream)"
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$oltp_keys" -conns 4 \
    -window 8 -duration 3s -scenario olap-stream >"$tmp/streaming.json"
stop_server

# Read scaling: single node, then 1 primary + 2 replicas with the
# same total connection count spread across the set. 24 connections
# saturate a single node on the reference hardware.
repl_keys=200000
read_load="-keys $repl_keys -conns 24 -window 4 -duration 5s -skew zipf -get 100"

"$tmp/pbtree-server" -addr "$addr" -keys "$repl_keys" >"$tmp/server.log" 2>&1 &
srv=$!
wait_reachable "$repl_keys"
echo "bench-serve: read scaling, single node"
# shellcheck disable=SC2086
"$tmp/pbtree-loadgen" -addr "$addr" $read_load >"$tmp/single_node_reads.json"
stop_server

r1port=$((port + 1000)); r1addr="127.0.0.1:$r1port"
r2port=$((port + 2000)); r2addr="127.0.0.1:$r2port"
"$tmp/pbtree-server" -addr "$addr" -keys "$repl_keys" \
    -data-dir "$tmp/primary" -fsync always >"$tmp/server.log" 2>&1 &
srv=$!
wait_reachable "$repl_keys"
"$tmp/pbtree-server" -addr "$r1addr" -data-dir "$tmp/replica1" \
    -fsync always -replica-of "$addr" -repl-poll 5ms >"$tmp/replica1.log" 2>&1 &
r1=$!
"$tmp/pbtree-server" -addr "$r2addr" -data-dir "$tmp/replica2" \
    -fsync always -replica-of "$addr" -repl-poll 5ms >"$tmp/replica2.log" 2>&1 &
r2=$!
for raddr in "$r1addr" "$r2addr"; do
    ok=0
    for _ in $(seq 1 100); do
        if "$tmp/pbtree-loadgen" -addr "$raddr" -keys "$repl_keys" -conns 1 \
            -duration 200ms -get 100 >"$tmp/replica_sweep.json" 2>/dev/null \
            && [ "$(sed -n 's/^  "not_found": \([0-9]*\),$/\1/p' "$tmp/replica_sweep.json")" = 0 ]; then
            ok=1
            break
        fi
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "bench-serve: replica $raddr never caught up"; cat "$tmp/replica1.log" "$tmp/replica2.log"; exit 1; }
done
echo "bench-serve: read scaling, 1 primary + 2 replicas"
# shellcheck disable=SC2086
"$tmp/pbtree-loadgen" -addr "$addr" -replicas "$r1addr,$r2addr" $read_load \
    >"$tmp/replica_set_reads.json"
kill -TERM "$r1" "$r2" 2>/dev/null || true
wait "$r1" "$r2" 2>/dev/null || true
stop_server

{
    printf '{\n"sequential":\n'
    cat "$tmp/sequential.json"
    printf ',\n"pipelined":\n'
    cat "$tmp/pipelined.json"
    printf ',\n"overhead_off":\n'
    cat "$tmp/overhead_off.json"
    printf ',\n"overhead_on":\n'
    cat "$tmp/overhead_on.json"
    for plane in pool goroutine; do
        for nconns in 64 256 1024; do
            printf ',\n"scale_%s_%s":\n' "$plane" "$nconns"
            cat "$tmp/scale_${plane}_${nconns}.json"
        done
    done
    printf ',\n"streaming":\n'
    cat "$tmp/streaming.json"
    printf ',\n"single_node_reads":\n'
    cat "$tmp/single_node_reads.json"
    printf ',\n"replica_set_reads":\n'
    cat "$tmp/replica_set_reads.json"
    printf '}\n'
} >"$out"

off=$(sed -n 's/^  "ops_per_sec": \([0-9.]*\),$/\1/p' "$tmp/overhead_off.json")
on=$(sed -n 's/^  "ops_per_sec": \([0-9.]*\),$/\1/p' "$tmp/overhead_on.json")
echo "bench-serve: oltp-point ops/sec: tracing off $off, on $on"
echo "bench-serve: wrote $out"
