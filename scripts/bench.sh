#!/usr/bin/env bash
# Runs the generation-side performance baseline and records it as
# BENCH_gen.json (graph) plus BENCH_workload.json (query workloads) for
# perf-trajectory tracking across PRs:
#
#   * the `generation` criterion bench (graph_gen / query_gen / ablation
#     groups, including the 1-vs-4-thread parallel pipeline ablation),
#     exported one JSON object per line via GMARK_BENCH_JSON;
#   * the `querygen_scale` binary (Section 6.2's 1000-query workload
#     generation + translation through the streaming pipeline), one row
#     per scenario per thread count (1 vs auto) into BENCH_workload.json —
#     each row records queries/s and the run's peak RSS (VmHWM), one
#     process per thread count so the peaks are per-run;
#   * the `scale_sweep` binary (Table 3-style): streamed generation at
#     50K -> 5M nodes plus materialized contrast rows, one process per
#     size so each row's `peak_rss_kb` (VmHWM) is a per-size peak — these
#     rows pin the memory-bounded streaming claim;
#   * the `store_sweep` binary (on-disk paged store): builds a 500K-node
#     `graph.gstore` through the streamed spool tee (build MB/s), then
#     evaluates the same workload paged (cold + warm pass) and in-RAM —
#     one process per mode so the `peak_rss_kb` rows contrast the paged
#     reader's bounded memory against the materialized CSR — into
#     BENCH_store.json.
#   * the `serve_sweep` binary (`gmark serve` daemon): drives the HTTP
#     serving path end to end — real TCP, chunked responses, the keyed
#     snapshot cache in the middle — and records a cold row (fresh seed
#     per request, every request a full build), a warm row (one plan,
#     snapshot hits, fresh connection per request), and a warm_keepalive
#     row (the same hits over one persistent connection) into
#     BENCH_serve.json: requests/s, p50/p95 latency, and peak RSS. The
#     warm/cold requests_per_s ratio pins the pay-once snapshot
#     guarantee, warm_keepalive/warm the keep-alive fast path.
#   * the `drive` binary (closed-loop traffic driver): fires the same
#     deterministic Zipf-skewed request sequence at three targets — the
#     in-process engine call path (no sockets), the served path over
#     keep-alive connections, and the served path with Connection: close
#     — one process per regime into BENCH_drive.json: sustained QPS and
#     p50/p95/p99/max latency of the measured phase after warmup. The
#     keepalive/close QPS ratio pins the keep-alive win end to end.
#
# The evaluation matrix has no section here: `benchmark/run.sh` measures
# it (`eval-inram`, `eval-paged`, and the `engines.*` metrics under
# `--trace 1`).
#
# Usage: scripts/bench.sh [gen.json] [workload.json] [store.json]
#        [serve.json] [drive.json]
#        (defaults: BENCH_gen.json BENCH_workload.json BENCH_store.json
#         BENCH_serve.json BENCH_drive.json)

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_gen.json}"
wl_out="${2:-BENCH_workload.json}"
store_out="${3:-BENCH_store.json}"
serve_out="${4:-BENCH_serve.json}"
drive_out="${5:-BENCH_drive.json}"
case "$out" in
    /*) ;;
    *) out="$PWD/$out" ;; # cargo runs bench binaries from the package dir
esac
case "$wl_out" in
    /*) ;;
    *) wl_out="$PWD/$wl_out" ;;
esac
case "$store_out" in
    /*) ;;
    *) store_out="$PWD/$store_out" ;;
esac
case "$serve_out" in
    /*) ;;
    *) serve_out="$PWD/$serve_out" ;;
esac
case "$drive_out" in
    /*) ;;
    *) drive_out="$PWD/$drive_out" ;;
esac
rm -f "$out" "$wl_out" "$store_out" "$serve_out" "$drive_out"

echo "== criterion generation benches (exporting to $out) =="
GMARK_BENCH_JSON="$out" cargo bench --offline -p gmark-bench --bench generation

echo "== querygen_scale (Section 6.2, exporting to $wl_out) =="
# One process per thread count: peak_rss_kb rows are per-run VmHWM peaks.
# 1 thread vs auto-detect pins the parallel workload pipeline's trajectory.
for t in 1 0; do
    GMARK_BENCH_JSON="$wl_out" cargo run --offline --release -p gmark-bench \
        --bin querygen_scale -- --threads "$t"
done

echo "== scale sweep (Table 3-style, streamed + materialized contrast) =="
# One process per size: peak_rss_kb rows are per-size VmHWM peaks.
for n in 50000 500000 5000000; do
    GMARK_BENCH_JSON="$out" cargo run --offline --release -p gmark-bench \
        --bin scale_sweep -- --nodes "$n" --mode streamed --threads 0
done
for n in 50000 500000; do
    GMARK_BENCH_JSON="$out" cargo run --offline --release -p gmark-bench \
        --bin scale_sweep -- --nodes "$n" --mode materialized --threads 0
done

echo "== store sweep (paged store build + paged-vs-in-RAM eval, exporting to $store_out) =="
# One process per mode: the paged rows' peak_rss_kb (VmHWM) measures the
# bounded-memory paged reader, the inram row the materialized CSR.
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
for mode in build paged inram; do
    GMARK_BENCH_JSON="$store_out" cargo run --offline --release -p gmark-bench \
        --bin store_sweep -- --mode "$mode" --nodes 500000 --store "$store_dir"
done

echo "== serve sweep (gmark serve daemon, cold vs warm, exporting to $serve_out) =="
# One process, three rows: cold (fresh seed per request, every request a
# full pipeline build), warm (one plan, snapshot hits after the first
# build, fresh connection per request), and warm_keepalive (the same
# hits over one persistent connection). warm/cold pins the snapshot
# cache; warm_keepalive/warm pins the keep-alive fast path.
GMARK_BENCH_JSON="$serve_out" cargo run --offline --release -p gmark-bench \
    --bin serve_sweep -- --nodes 500 --requests 20 --workers 2

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
wc -l "$out" "$wl_out" "$store_out" "$serve_out" "$drive_out"
cat "$out"
cat "$wl_out"
cat "$store_out"
cat "$serve_out"
cat "$drive_out"
