#!/usr/bin/env bash
# The merge gate: everything `cargo test -q` at the root does not reach.
# Clippy with warnings denied over every first-party crate, a source check
# on the model kernels, then the bit-identity, determinism, fault and
# zero-allocation suites under crates/*/tests — the kernel-facing ones
# under both dispatch arms (KGE_FORCE_SCALAR=1 pins the baseline-compiled
# copies) — the full-FB250K sharded footprint cell, the repro CLI tests,
# and a build of benchmark/ against the workspace with its unit tests.
# About twelve minutes.
#
# The shim-* crates are offline stand-ins for external dependencies
# (rand, rayon, serde, ...) and intentionally mirror foreign APIs —
# idiom lints there are noise, so clippy skips them.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(
  simgrid
  kge-core
  kge-data
  kge-compress
  kge-partition
  kge-eval
  kge-train
  kge-serve
  bench
)

ARGS=()
for c in "${CRATES[@]}"; do
  ARGS+=(-p "$c")
done

cargo clippy "${ARGS[@]}" --all-targets -- -D warnings
echo "check: clippy clean (warnings denied) for: ${CRATES[*]}"

# The models are one `term` / `grad_terms` pair each under generic drivers
# compiled twice; a hand-written intrinsics kernel does not come back.
if grep -nE 'std::arch|unsafe fn' crates/kge-core/src/model.rs; then
  echo "check: crates/kge-core/src/model.rs must hold no std::arch use and no unsafe fn" >&2
  exit 1
fi
echo "check: model.rs holds no intrinsics and no unsafe fn"

# Argument counts are a tracked quantity that only goes down: first-party
# functions take at most seven parameters, bar the allows counted here.
allows=$({ grep -rn 'allow(clippy::too_many_arguments)' crates/*/src || true; } | grep -vc '^crates/shim-' || true)
if [ "$allows" -gt 13 ]; then
  echo "check: $allows #[allow(clippy::too_many_arguments)] in first-party crates/*/src; the ratchet is 13" >&2
  exit 1
fi
echo "check: $allows too_many_arguments allows in first-party src (ratchet 13)"

# The communicator: in-file protocol tests, collectives against the
# reference to the bit, the dawdling-rank stress test that fails if a
# barrier the staging protocol needs goes missing, the cost model, and
# fault injection (crash, shrink, rejoin, retries, symmetric errors).
cargo test -p simgrid --release
echo "check: simgrid collectives, stress, cost-model + fault-injection tests pass"

# The data layer: the generator's bytes for every graph the benchmark,
# repro and the root suite build (synth_golden), the guide-table sampler
# against the binary search it replaced, the generator and filter
# property tests, and the in-file tests.
cargo test -p kge-data --release
echo "check: kge-data golden, sampler equality + property tests pass"

# The evaluation bit-identity property tests: blocked one-vs-all ranking
# must reproduce the scalar oracle's ranks exactly for every model — under
# both dispatch arms — and steady-state evaluation must not allocate.
cargo test -p kge-eval --release --test prop_eval --test zero_alloc_eval
KGE_FORCE_SCALAR=1 cargo test -p kge-eval --release --test prop_eval
echo "check: eval property (both dispatch arms) + zero-alloc tests pass"

# Forward-kernel (score_triples == score), transposed one-vs-all,
# training-kernel, optimizer-kernel and codec bit-identity property tests
# (the model kernels for all five models), run under both
# dispatch arms: the default (AVX where the host supports it) and with
# KGE_FORCE_SCALAR=1 pinning every kernel to the scalar fallback. Both
# arms must produce identical bits, so both must pass identically. With
# them, the gradient accumulator against its BTreeMap + insertion-order
# oracle (no dispatch arm to vary); prop_roundtrip also holds row
# selection to its reference implementation.
cargo test -p kge-core --release --test prop_score_kernel --test prop_train_kernels --test prop_optim_kernels --test prop_sparse_grad
cargo test -p kge-compress --release --test prop_roundtrip
KGE_FORCE_SCALAR=1 cargo test -p kge-core --release --test prop_score_kernel --test prop_train_kernels --test prop_optim_kernels
KGE_FORCE_SCALAR=1 cargo test -p kge-compress --release --test prop_roundtrip
echo "check: kernel, optimizer, accumulator + codec property tests pass (both dispatch arms)"

# The batch-gradient path around the kernel: a batch's gradients must be
# bit-identical at any thread count (chunk-ordered fold, first chunk
# handed over by swap) and a chunked merge must equal sequential
# accumulation at any split — under both dispatch arms — and the replica
# batch step (kernel, selection, both exchanges, optimizer) must not
# allocate in steady state, at window 0 and at window 2, on the baseline
# and on the combined-strategy path, on one rank and — the wire path
# proper — on two.
# S5's chunk-wide pool staging must stage what the per-positive loop it
# replaced staged, draw for draw.
cargo test -p kge-train --release --test determinism_threads --test prop_chunked_merge --test prop_neg_selection --test zero_alloc
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test determinism_threads --test prop_chunked_merge --test prop_neg_selection
echo "check: batch-gradient determinism + zero-alloc tests pass (both dispatch arms)"

# The replica step, one mechanism with a window: window 0 (the synchronous
# exchange) and window >= 1 (the pipelined one) are the same step, and the
# 48-cell replica_golden table (clock, breakdown, model, wire bytes,
# tallies, per-epoch trace) holds every exchange mode, world size,
# crash-shrink, rejoin and eval cell to the bit; staleness 0 must equal
# the synchronous modes and staleness >= 1 must be thread-count
# independent — under both dispatch arms.
cargo test -p kge-train --release --test pipeline_determinism
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test pipeline_determinism
echo "check: replica step golden table + pipelined determinism pass (both dispatch arms)"

# The collectives' error paths under the trainer: crashes and induced
# timeouts mid-exchange (synchronous and pipelined) must shrink, recover
# and stay bit-reproducible, and every strategy x interconnect cell must
# conserve wire bytes.
cargo test -p kge-train --release --test fault_determinism --test fault_tolerance --test strategy_matrix
echo "check: fault determinism, fault tolerance + strategy matrix pass"

# Checkpoint/restore: the codec roundtrip + corruption property tests,
# the committed golden fixture, the pooled-buffer zero-alloc guard, and
# the resume-equivalence matrix (checkpoint-at-k + resume must be
# bit-identical to the uninterrupted run) — the matrix under both
# dispatch arms, since a resumed run must replay the *same* arm's bits.
cargo test -p kge-train --release \
  --test prop_checkpoint_roundtrip \
  --test golden_checkpoint \
  --test zero_alloc_checkpoint \
  --test resume_determinism
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test resume_determinism
echo "check: checkpoint codec + resume equivalence pass (both dispatch arms)"

# Sharded storage: f32 sharded runs (with and without the hot cache,
# synchronous and prefetch-pipelined) must be bit-identical to the
# full-replica trainer across world sizes and thread counts,
# int8-at-rest must be deterministic (prefetch on or off), crash
# recovery — including a crash mid-prefetch-ring — must shrink and stay
# reproducible, the 34-cell golden table (clock, breakdown, model, wire,
# counters, lane seconds) must hold to the bit, and the one-batch-ahead
# ring must hide the pull-bound lane by the A/B's thresholds — under both
# dispatch arms — and the one sharded step must stay allocation-free at
# lookahead 0 and at lookahead 1.
cargo test -p kge-train --release --test sharded_determinism --test zero_alloc_sharded
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test sharded_determinism
# The memory wall, at the full FB250K shape (16 M train triples, 4 ranks,
# one epoch): resident model <= 40 % of the replica with f32 cold rows
# (<= 15 % int8), hot-tier hit rate >= 0.5. About two minutes.
cargo test -p kge-train --release --test sharded_determinism -- --ignored
echo "check: sharded storage determinism, footprint + zero-alloc tests pass (both dispatch arms)"

# Serving: top-k must be bit-identical to the scalar full-sort oracle
# (across models, dims, k, filtered/unfiltered — both dispatch arms),
# steady-state batch admission must not allocate, and snapshots published
# mid-training must equal the checkpoint model bytes, at a publish
# overhead of at most 5 % of simulated time.
cargo test -p kge-serve --release --test prop_topk --test zero_alloc_serve --test serve_train
KGE_FORCE_SCALAR=1 cargo test -p kge-serve --release --test prop_topk
echo "check: serve top-k bit-identity + zero-alloc + snapshot tests pass (both dispatch arms)"

# The paper harness: its unit tests, and `repro` / `train_once` refusing a
# bad command line with exit status 2 before any work.
cargo test -p bench --release
echo "check: repro harness + CLI tests pass"

# The repo's benchmark is a package of its own with path dependencies on
# the workspace crates: build it and run its unit tests here, so a public
# API change that breaks it fails locally and not in the gate.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# benchmark/ is frozen, and its Cargo.lock still lists the deleted
# shim-bytes crate, which cargo prunes on every build: put it back.
git checkout -- benchmark/Cargo.lock
echo "check: benchmark/ builds against the workspace and its unit tests pass"
