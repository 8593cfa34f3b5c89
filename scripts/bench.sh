#!/usr/bin/env bash
# Records the two micro-baselines the whole-pipeline benchmark does not
# cover, for perf-trajectory tracking across PRs:
#
#   * the `generation` criterion bench (graph_gen / query_gen / ablation
#     groups, including the 1-vs-4-thread parallel pipeline ablation),
#     exported one JSON object per line via GMARK_BENCH_JSON into
#     BENCH_gen.json;
#   * the `drive` binary (closed-loop traffic driver): fires the same
#     deterministic Zipf-skewed request sequence at three targets — the
#     in-process engine call path (no sockets), the served path over
#     keep-alive connections, and the served path with Connection: close
#     — one process per regime into BENCH_drive.json: sustained QPS and
#     p50/p95/p99/max latency of the measured phase after warmup. The
#     keepalive/close QPS ratio pins the keep-alive win end to end.
#
# Everything else is a named workload of `benchmark/run.sh` (the root
# README says which metric answers which question).
#
# Usage: scripts/bench.sh [gen.json] [drive.json]
#        (defaults: BENCH_gen.json BENCH_drive.json)

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_gen.json}"
drive_out="${2:-BENCH_drive.json}"
case "$out" in
    /*) ;;
    *) out="$PWD/$out" ;; # cargo runs bench binaries from the package dir
esac
case "$drive_out" in
    /*) ;;
    *) drive_out="$PWD/$drive_out" ;;
esac
rm -f "$out" "$drive_out"

echo "== criterion generation benches (exporting to $out) =="
GMARK_BENCH_JSON="$out" cargo bench --offline -p gmark-bench --bench generation

echo "== drive (closed-loop traffic driver, exporting to $drive_out) =="
# One process per regime, identical driver parameters, so the three QPS
# numbers are directly comparable: the in-process engine-call ceiling,
# the served path over kept-alive connections, and the served path
# reconnecting per request. keepalive beating close is the keep-alive
# acceptance pin.
GMARK_BENCH_JSON="$drive_out" cargo run --offline --release -p gmark-bench \
    --bin drive -- --target inprocess --nodes 300 \
    --requests 400 --warmup 40 --max-concurrency 2 --distinct 8
for transport in keepalive close; do
    GMARK_BENCH_JSON="$drive_out" cargo run --offline --release -p gmark-bench \
        --bin drive -- --target served --transport "$transport" --nodes 300 \
        --requests 400 --warmup 40 --max-concurrency 2 --workers 2 --distinct 8
done

echo "== baselines written =="
wc -l "$out" "$drive_out"
cat "$out"
cat "$drive_out"
