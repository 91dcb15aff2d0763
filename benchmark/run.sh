#!/usr/bin/env bash
# Build the benchmark once (--release) and run all four workloads from one
# seed; with --trace, also the traced pass. Results go under --out-dir,
# which must lie outside the repository.
#
#   benchmark/run.sh --out-dir /tmp/kge-bench [--seed 1] [--seconds 24] [--trace]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/.." && pwd)"
out_dir=""
seed=1
seconds=24
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --out-dir) out_dir="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done
if [ -z "$out_dir" ]; then
    echo "usage: $0 --out-dir <dir outside the repository> [--seed n] [--seconds n] [--trace]" >&2
    exit 2
fi
out_dir="$(realpath -m "$out_dir")"
case "$out_dir/" in
    "$repo"/*) echo "--out-dir must lie outside the repository ($repo)" >&2; exit 2 ;;
esac
mkdir -p "$out_dir"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$out_dir/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/kge-benchmark"

cd "$repo"
for workload in replica_dense replica_combined sharded_prefetch eval_serve; do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out-dir "$out_dir" | tee "$out_dir/$workload-seed$seed.txt"
    if [ "$trace" = 1 ]; then
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
            --out-dir "$out_dir" | tee "$out_dir/$workload-seed$seed.layers.txt"
    fi
done
echo "results under $out_dir"
