#!/usr/bin/env bash
# Smoke benchmark for the chunked-parallel batch gradient hot path.
#
# Builds and runs the `bench_batch` binary, which times one-batch gradient
# computation (10 000 positives, dim 64, FB15K-like) under worker pools of
# 1 and 4 threads, checks the gradients are bit-identical across pool
# sizes, and writes triples/sec per pool to BENCH_batch.json. The JSON
# records `host_cores`; on a single-core host the 4-thread figure measures
# scheduling overhead, not parallel speedup.
#
# The binary also trains a quick-scale faulted vs fault-free pair on a
# 4-node simulated cluster (seeded straggler + mid-run rank crash) and
# records both simulated-time profiles, the recovery overhead, and a
# bit-reproducibility check under `fault_injection` in the same JSON.
#
# It then runs `bench_serve`, which A/Bs batched vs single-query top-k
# admission at dim 128 over a DRAM-resident entity table (asserting
# batched >= 3x and bit-identity to the scalar oracle), measures open-loop
# p50/p99 latency under power-law skew, and asserts cadence-1 snapshot
# publishing costs <= 5% simulated time — written to BENCH_serve.json.
#
# It also runs `bench_eval`, which times blocked vs scalar filtered
# ranking and writes BENCH_eval.json.
#
# After the three binaries finish, the script asserts every BENCH_*.json
# records `host_cores` and every field the in-run assert tier gates on —
# a regression guard against a bench silently dropping the evidence its
# acceptance criteria are judged by.
#
# Usage: scripts/bench_smoke.sh [output.json] [serve_output.json] [eval_output.json]
#        (defaults: BENCH_batch.json BENCH_serve.json BENCH_eval.json)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_batch.json}"
SERVE_OUT="${2:-BENCH_serve.json}"
EVAL_OUT="${3:-BENCH_eval.json}"
cargo build --release -p bench --bin bench_batch --bin bench_serve --bin bench_eval
./target/release/bench_batch "$OUT"
echo "bench_smoke: wrote $OUT"
./target/release/bench_serve "$SERVE_OUT"
echo "bench_smoke: wrote $SERVE_OUT"
./target/release/bench_eval "$EVAL_OUT"
echo "bench_smoke: wrote $EVAL_OUT"

python3 - "$OUT" "$SERVE_OUT" "$EVAL_OUT" <<'PY'
import json, sys

batch, serve, eval_ = sys.argv[1:4]

# Dotted paths the in-run assert tier gates on, per report. A missing
# path means a bench stopped recording evidence for a claim it asserts.
REQUIRED = {
    batch: [
        "host_cores",
        "gradients_bit_identical_across_pools",
        "kernel_simd.avx_vs_scalar_bit_identical",
        "optimizer_simd.avx_vs_scalar_bit_identical",
        "optimizer_simd.adam_dense_ns_per_elem",
        "optimizer_simd.adam_lazy_ns_per_elem",
        "fault_injection.faulted_run_bit_reproducible",
        "fault_injection.faulted.recoveries",
        "checkpointing.checkpoint_s_fraction",
        "pipelined_exchange.comm_bound.speedup_pipelined_over_sync",
        "pipelined_exchange.comm_bound.lower_bound_s",
        "pipelined_exchange.compute_bound.speedup_pipelined_over_sync",
        "sharded_memory.f32_cold.resident_fraction",
        "sharded_memory.f32_cold.hot_tier_hit_rate",
        "sharded_memory.int8_cold.resident_fraction",
    ],
    serve: [
        "host_cores",
        "admission.batch_speedup",
        "admission.oracle_bit_identical",
        "publish.overhead_pct",
        "publish.model_unperturbed",
        "publish.snapshot_matches_checkpoint",
        "open_loop.p99_latency_ms",
    ],
    eval_: [
        "host_cores",
        "metrics_bit_identical",
        "speedup_dim128_single_thread",
    ],
}

failed = False
for path, fields in REQUIRED.items():
    with open(path) as f:
        doc = json.load(f)
    for dotted in fields:
        node = doc
        missing = False
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                missing = True
                break
            node = node[part]
        if missing:
            print(f"bench_smoke: {path} missing assert-tier field {dotted}", file=sys.stderr)
            failed = True
        elif node is None:
            print(f"bench_smoke: {path} assert-tier field {dotted} is null", file=sys.stderr)
            failed = True
if failed:
    sys.exit(1)
print("bench_smoke: host_cores + assert-tier fields present in all three reports")
PY
