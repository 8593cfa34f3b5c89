#!/usr/bin/env bash
# The one entry point of the benchmark: builds the gmark release binary and
# this package from source, then hands every argument to the harness.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/src" ]; then
    echo "benchmark: no gmark sources beside $here; nothing to measure" >&2
    exit 2
fi

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it so both builds and the harness agree on one place.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    gmark_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    gmark_target="$root/target"
    bench_target="$here/target"
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin gmark >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$bench_target/release/gmark-benchmark" \
    --gmark "$gmark_target/release/gmark" --root "$root" "$@"
