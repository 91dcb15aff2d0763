#!/usr/bin/env bash
# The merge gate: everything `cargo test -q` at the root does not reach.
# Clippy with warnings denied over every first-party crate, a source check
# on the model kernels, then every test target of every first-party crate
# (unit tests, crates/*/tests, doctests) — the bit-identity, determinism,
# fault, golden-table and zero-allocation suites among them — with the
# kernel-facing suites run again under KGE_FORCE_SCALAR=1 (which pins the
# baseline-compiled copies), the full-FB250K sharded footprint cell, and a
# build of benchmark/ against the workspace with its unit tests.
# About three minutes from an empty target directory on a 2-vCPU host
# (under two when built), half of it the FB250K footprint cell.
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
if [ "$allows" -gt 12 ]; then
  echo "check: $allows #[allow(clippy::too_many_arguments)] in first-party crates/*/src; the ratchet is 12" >&2
  exit 1
fi
echo "check: $allows too_many_arguments allows in first-party src (ratchet 12)"

# Every test target of every first-party crate: its in-file unit tests,
# every file under its tests/ and its doctests. Then the kernel-facing
# suites again with KGE_FORCE_SCALAR=1 pinning every kernel to the
# baseline-compiled copies; both arms must produce identical bits, so both
# must pass identically.
for c in "${CRATES[@]}"; do
  cargo test -p "$c" --release
  echo "check: $c: every test target passes"
done

# The model kernels: forward (score_triples == score), transposed
# one-vs-all, training and optimizer kernels for all five models, and the
# codec; row selection against its reference implementation.
KGE_FORCE_SCALAR=1 cargo test -p kge-core --release --test prop_score_kernel --test prop_train_kernels --test prop_optim_kernels
KGE_FORCE_SCALAR=1 cargo test -p kge-compress --release --test prop_roundtrip
# Blocked one-vs-all ranking against the scalar oracle's ranks, exactly.
KGE_FORCE_SCALAR=1 cargo test -p kge-eval --release --test prop_eval
# A batch's gradients at any thread count and any chunk split, and S5's
# chunk-wide pool staging against the per-positive loop it replaced.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test determinism_threads --test prop_chunked_merge --test prop_neg_selection
# The replica step: the 48-cell replica_golden table and pipelined
# determinism (window 0 is the synchronous exchange).
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test pipeline_determinism
# Checkpoint-at-k + resume must replay the *same* arm's bits.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test resume_determinism
# Sharded storage against the replica trainer, the 34-cell sharded_golden
# table and the prefetch ring's A/B.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test sharded_determinism
# Serving: top-k against the scalar full-sort oracle.
KGE_FORCE_SCALAR=1 cargo test -p kge-serve --release --test prop_topk
echo "check: kernel-facing suites pass under KGE_FORCE_SCALAR=1 as well"

# The memory wall, at the full FB250K shape (16 M train triples, 4 ranks,
# one epoch): resident model <= 40 % of the replica with f32 cold rows
# (<= 15 % int8), hot-tier hit rate >= 0.5. About two minutes.
cargo test -p kge-train --release --test sharded_determinism -- --ignored
echo "check: sharded FB250K footprint cell passes"

# The repo's benchmark is a package of its own with path dependencies on
# the workspace crates: build it and run its unit tests here, so a public
# API change that breaks it fails locally and not in the gate.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# benchmark/ is frozen, and its Cargo.lock still lists the deleted
# shim-bytes crate, which cargo prunes on every build: put it back.
git checkout -- benchmark/Cargo.lock
echo "check: benchmark/ builds against the workspace and its unit tests pass"
