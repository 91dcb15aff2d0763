#!/usr/bin/env bash
# The merge gate: everything `cargo test -q` at the root does not reach.
# The SIMD levels this host can run, clippy with warnings denied over every
# first-party crate, source checks on the dispatch and the model kernels,
# then every test target of every first-party crate (unit tests,
# crates/*/tests, doctests) — the bit-identity, determinism, fault,
# golden-table and zero-allocation suites among them; the kernel suites run
# each case at every detected level in-process — with the trainer suites
# run again under KGE_FORCE_SCALAR=1 (which pins the baseline-compiled
# copies), the full-FB250K sharded footprint cell, the API docs with
# warnings denied, and a build of benchmark/ against the workspace with
# its unit tests.
# About three minutes from an empty target directory on a 2-vCPU host
# (under two when built), half of it the FB250K footprint cell.
#
# The shim-* crates are offline stand-ins for external dependencies
# (rand, rayon, proptest, parking_lot) and intentionally mirror foreign
# APIs — idiom lints there are noise, so clippy skips them.
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

# The dispatch levels this host can run (kge_core::simd::Level::detected),
# first, so a log from a host without AVX-512 shows that the one-vs-all
# sweep's third copy went unexercised.
levels=$(cargo test -q -p kge-core --release --lib simd::tests::detected_levels_run_from_scalar_to_the_host \
  -- --exact --nocapture | grep '^simd levels detected:')
echo "check: $levels"
case "$levels" in
  *Avx512*) ;;
  *) echo "check: no AVX-512 on this host: the one-vs-all sweep's avx512f copy is not exercised" ;;
esac

cargo clippy "${ARGS[@]}" --all-targets -- -D warnings
echo "check: clippy clean (warnings denied) for: ${CRATES[*]}"

# The models are one `term` / `grad_terms` pair each under generic drivers
# compiled per dispatch level; a hand-written intrinsics kernel does not
# come back.
if grep -nE 'std::arch|unsafe fn' crates/kge-core/src/model.rs; then
  echo "check: crates/kge-core/src/model.rs must hold no std::arch use and no unsafe fn" >&2
  exit 1
fi
echo "check: model.rs holds no intrinsics and no unsafe fn"

# Intrinsics live in the dispatch module alone (feature detection, the
# forward's transposed sums and the codec's sign-byte select): every other
# kernel is one safe body compiled per level, and the list does not grow.
ARCH_ALLOWED=(
  crates/kge-core/src/simd.rs
)
arch_users=$(grep -rlE --include='*.rs' '(std|core)::arch' crates src tests examples benchmark/src | sort)
if unlisted=$(grep -vxF -f <(printf '%s\n' "${ARCH_ALLOWED[@]}") <<<"$arch_users"); then
  printf '%s\n' "$unlisted" >&2
  echo "check: std::arch outside the allow-list (${ARCH_ALLOWED[*]})" >&2
  exit 1
fi
echo "check: std::arch only in ${ARCH_ALLOWED[*]}"

# No first-party `unsafe fn`: a per-level copy is a safe #[target_feature]
# fn. The one exception is the counting allocator, whose GlobalAlloc impl
# the trait makes unsafe.
if grep -rnw --include='*.rs' 'unsafe fn' crates/*/src | grep -v '^crates/shim-' \
  | grep -v '^crates/kge-core/src/alloc_count.rs:'; then
  echo "check: unsafe fn in first-party crates/*/src outside crates/kge-core/src/alloc_count.rs" >&2
  exit 1
fi
echo "check: no unsafe fn in first-party src but the counting allocator's"

# All CPU feature detection lives in kge-core's simd module.
if grep -rn --include='*.rs' 'is_x86_feature_detected' crates src tests examples benchmark/src \
  | grep -v '^crates/kge-core/src/simd.rs:'; then
  echo "check: is_x86_feature_detected outside crates/kge-core/src/simd.rs" >&2
  exit 1
fi
echo "check: feature detection only in kge-core's simd module"

# One 512-bit copy and one only: the one-vs-all driver's. Compiled at that
# width, the training forward and backward measured slower, so they, the
# optimizer and the codec stay on their AVX (AVX2) copies.
wide=$(grep -rn --include='*.rs' -A1 'target_feature.*avx512' crates src tests examples benchmark/src || true)
if [ "$(grep -c 'target_feature' <<<"$wide")" -ne 1 ] \
  || ! grep -qE '^crates/kge-core/src/model.rs-[0-9]+-fn ova_t_avx512<' <<<"$wide"; then
  printf '%s\n' "$wide" >&2
  echo "check: the only avx512 target_feature must sit on model.rs's ova_t_avx512" >&2
  exit 1
fi
echo "check: avx512f enabled on the one-vs-all copy alone"

# Argument counts are a tracked quantity that only goes down: first-party
# functions take at most seven parameters, bar the allows counted here.
allows=$({ grep -rn 'allow(clippy::too_many_arguments)' crates/*/src || true; } | grep -vc '^crates/shim-' || true)
if [ "$allows" -gt 9 ]; then
  echo "check: $allows #[allow(clippy::too_many_arguments)] in first-party crates/*/src; the ratchet is 9" >&2
  exit 1
fi
echo "check: $allows too_many_arguments allows in first-party src (ratchet 9)"

# So is the trainer crate's size: one epoch loop serves the replica, the
# sharded store and the parameter server, and a second copy does not come
# back.
train_lines=$(cat crates/kge-train/src/*.rs | wc -l)
if [ "$train_lines" -gt 8328 ]; then
  echo "check: crates/kge-train/src is $train_lines lines; the ratchet is 8328" >&2
  exit 1
fi
echo "check: crates/kge-train/src is $train_lines lines (ratchet 8328)"

# One epoch loop: the data order, the LR schedule, the validation signal
# and the report are each built once in the trainer crate's code (its test
# modules and comment lines aside), in trainer.rs.
loop_src=$(for f in crates/kge-train/src/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" $0 }' "$f"
done | grep -vE '^[^:]+:[[:space:]]*//')
for pat in 'EpochShuffler::new' 'PlateauSchedule::new' 'fast_valid_accuracy\(' 'TrainReport \{'; do
  hits=$({ grep -E "$pat" <<<"$loop_src" || true; } | { grep -vE '(struct|impl) TrainReport \{' || true; })
  if [ "$(grep -c . <<<"$hits")" -ne 1 ] || ! grep -q '^crates/kge-train/src/trainer.rs:' <<<"$hits"; then
    printf '%s\n' "$hits" >&2
    echo "check: '$pat' must appear exactly once in crates/kge-train/src, in trainer.rs" >&2
    exit 1
  fi
done
echo "check: one epoch loop (shuffler, schedule, validation and report built once, in trainer.rs)"

# And so is the amount of unsafe code: the lines of every crate's src,
# first-party and shim, that name `unsafe` outside a `//` comment.
unsafe_lines=$({ grep -rnw --include='*.rs' unsafe crates/*/src || true; } | grep -cvE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$unsafe_lines" -gt 24 ]; then
  grep -rnw --include='*.rs' unsafe crates/*/src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2
  echo "check: $unsafe_lines lines use unsafe in crates/*/src; the ratchet is 24" >&2
  exit 1
fi
echo "check: $unsafe_lines lines use unsafe in crates/*/src (ratchet 24)"

# One parallel mechanism: every parallel loop runs through the rayon shim's
# par_split_mut (or its one-slice case par_for_each_mut) over scratches its
# caller owns, and its one-thread case is the region itself, not a second
# code path. The retired index primitives, the scratch pool, the raw-pointer
# split and a branch on a one-thread pool do not come back.
if grep -rnE --include='*.rs' 'par_map_index|par_for_each_index|ScratchPool|SendPtr|current_num_threads\(\) *<= *1' crates/*/src \
  | grep -v '^crates/shim-'; then
  echo "check: a retired parallel primitive or a one-thread branch in first-party crates/*/src" >&2
  exit 1
fi
echo "check: one parallel mechanism (no retired primitive, no one-thread branch)"

# Code with no caller outside its own file is deleted or made private, not
# kept public: scripts/orphans.sh lists the public functions whose name no
# other first-party file mentions, and their count only goes down.
orphans=$(scripts/orphans.sh)
n_orphans=$(grep -c . <<<"$orphans" || true)
if [ "$n_orphans" -gt 1 ]; then
  printf '%s\n' "$orphans" >&2
  echo "check: $n_orphans orphan public functions; the ratchet is 1" >&2
  exit 1
fi
echo "check: $n_orphans orphan public functions (ratchet 1)"

# Nothing serializes a derived type and the JSON lines have their own
# writer (crates/bench/src/reportfmt.rs): serde does not come back.
if grep -n 'serde' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
  echo "check: serde in a Cargo.toml" >&2
  exit 1
fi
echo "check: no serde dependency"

# Every test target of every first-party crate: its in-file unit tests,
# every file under its tests/ and its doctests. The kernel suites
# (prop_score_kernel, prop_train_kernels, prop_optim_kernels,
# prop_norm_kernel, prop_roundtrip, prop_neg_selection, prop_eval,
# prop_topk and the zero_alloc_* suites) run each case at every detected
# level in-process.
for c in "${CRATES[@]}"; do
  cargo test -p "$c" --release
  echo "check: $c: every test target passes"
done

# The trainer suites have no level loop of their own: run them again with
# KGE_FORCE_SCALAR=1 pinning every kernel to the baseline-compiled copies.
# Every level must produce identical bits, so both runs must pass.
# A batch's gradients at any thread count and any chunk split.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test determinism_threads --test prop_chunked_merge
# The replica step: the 48-cell replica_golden table and pipelined
# determinism (window 0 is the synchronous exchange).
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test pipeline_determinism
# Checkpoint-at-k + resume must replay the *same* level's bits.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test resume_determinism
# Sharded storage against the replica trainer, the 17-cell sharded_golden
# table (every epoch's trace, tallies, wire totals and footprint), the
# crash-and-rejoin cell and the prefetch ring's hidden seconds.
KGE_FORCE_SCALAR=1 cargo test -p kge-train --release --test sharded_determinism
echo "check: trainer suites pass under KGE_FORCE_SCALAR=1 as well"

# The memory wall, at the full FB250K shape (16 M train triples, 4 ranks,
# one epoch): resident model <= 40 % of the replica with f32 cold rows
# (<= 15 % int8), hot-tier hit rate >= 0.5. About two minutes.
cargo test -p kge-train --release --test sharded_determinism -- --ignored
echo "check: sharded FB250K footprint cell passes"

# The API docs build without a warning: no broken or private intra-doc
# link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
echo "check: cargo doc clean (warnings denied)"

# The repo's benchmark is a package of its own with path dependencies on
# the workspace crates: build it and run its unit tests here, so a public
# API change that breaks it fails locally and not in the gate.
# benchmark/ is frozen, and its Cargo.lock still lists the deleted
# shim-bytes, serde and serde_derive crates (and dependency edges the
# manifests dropped since), which cargo prunes on every build: put it back
# on the way out, also when the build or a test fails below.
trap 'git checkout -- benchmark/Cargo.lock' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
echo "check: benchmark/ builds against the workspace and its unit tests pass"
