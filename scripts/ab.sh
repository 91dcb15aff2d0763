#!/usr/bin/env bash
# A/B the repo's benchmark (benchmark/, declared by BENCHMARK.json) between
# <base-rev> and HEAD: ten pairs per workload, every run a fresh process
# with the benchmark's command line (--seed 1 --seconds 24 --trace 0), the
# side that runs first alternating from pair to pair. `--seed N` runs both
# sides at workload seed N instead (the held-out-seed confirmation of a
# claim), `--pairs N` runs N pairs. Each side is a
# `git archive` export of its commit built with its own CARGO_TARGET_DIR,
# both in one temporary directory outside the repository and removed at
# exit, so nothing is built, written or left behind in the working tree
# (commit the change first: the head side is HEAD, not the working tree).
#
# Per (workload, end-to-end metric) it prints both medians, head/base, the
# base's interquartile range as a share of its median, the pairs head won,
# and a verdict against BENCHMARK.json's `better` and `bound`: `worse`
# past the bound, `unresolved` when the base's own IQR exceeds the bound,
# else `ok`. Per workload it then says whether sim_epoch_s,
# final_train_loss and test_mrr are bit-equal across all twenty runs, how
# many runs reported `"correct": true` and how many operations failed.
# `--claim workload:metric` (repeatable) then prints the gain verdict for
# that pairing (choosing-metrics guide, section 8): `gain` when head won at
# least nine tenths of the pairs, ties counting for neither, and the
# medians differ by more than the base's interquartile range, in the
# metric's `better` direction; `no gain` otherwise.
# `--layers` then runs one traced pass (--trace 1) per side and workload,
# after the pairs, and prints BENCHMARK.json's per-layer metrics side by
# side: both values, head/base and the direction that is better. One pass
# each carries no noise band; it attributes a change, it does not judge one.
# `--aligned` builds both sides with every function and loop aligned to
# 64 bytes (RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C
# llvm-args=-align-loops=64"), so code the change did not touch keeps its
# alignment wherever the linker puts it: a metric that moves on one side
# of a plain A/B but not of an aligned one moved by placement, not by
# code. It measures the aligned builds, not the ones the benchmark runs.
# Exit status 1 if any verdict is `worse`, one of those three differs, a
# claim is not a gain, or a run is missing, incorrect or has a failed
# operation.
#
# Usage: scripts/ab.sh [--seed N] [--pairs N] [--claim workload:metric]... [--layers]
#                      [--aligned] <base-rev> [workload...]   (default: every workload)
#        scripts/ab.sh HEAD replica_dense         (A/A: the noise floor)
# About 5 minutes per workload on a 2-vCPU host, plus two builds (and
# about a minute per workload for --layers).
set -euo pipefail
cd "$(dirname "$0")/.."
usage() {
  echo "usage: scripts/ab.sh [--seed N] [--pairs N] [--claim workload:metric]... [--layers] [--aligned] <base-rev> [workload...]" >&2
  exit 2
}
SEED=1
PAIRS=10
LAYERS=0
RUSTFLAGS_AB=
claims=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) [[ "${2:-}" =~ ^[0-9]+$ ]] || usage; SEED=$2; shift 2 ;;
    --pairs) [[ "${2:-}" =~ ^[1-9][0-9]*$ ]] || usage; PAIRS=$2; shift 2 ;;
    --claim) [[ "${2:-}" == *:* ]] || usage; claims+=("$2"); shift 2 ;;
    --layers) LAYERS=1; shift ;;
    --aligned) RUSTFLAGS_AB="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"; shift ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] || usage
base=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "ab: unknown revision $1" >&2; exit 2; }
head=$(git rev-parse HEAD)
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/kge-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for side in base head; do
  echo "ab: building $side ${!side}" >&2
  mkdir -p "$tmp/$side" "$tmp/runs"
  git archive "${!side}" | tar -x -C "$tmp/$side"
  env ${RUSTFLAGS_AB:+"RUSTFLAGS=$RUSTFLAGS_AB"} CARGO_TARGET_DIR="$tmp/$side.target" \
    cargo build --release --offline --quiet \
    --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

for w in "${workloads[@]}"; do
  for i in $(seq 1 $PAIRS); do
    order="base head"
    [ $((i % 2)) -eq 0 ] && order="head base"
    for side in $order; do
      echo "ab: $w pair $i/$PAIRS $side" >&2
      (cd "$tmp/$side" && "$tmp/$side.target/release/kge-benchmark" --workload "$w" \
        --seed "$SEED" --seconds 24 --trace 0 --out-dir "$tmp/out") > "$tmp/runs/$w.$side.$i.txt" || true
    done
  done
done

if [ "$LAYERS" -eq 1 ]; then
  for w in "${workloads[@]}"; do
    for side in base head; do
      echo "ab: $w traced pass $side" >&2
      (cd "$tmp/$side" && "$tmp/$side.target/release/kge-benchmark" --workload "$w" \
        --seed "$SEED" --seconds 24 --trace 1 --out-dir "$tmp/out") > "$tmp/runs/$w.$side.trace.txt" || true
    done
  done
fi

echo "base $base  head $head  ($PAIRS pairs per workload, seed $SEED${RUSTFLAGS_AB:+, aligned builds: RUSTFLAGS=\"$RUSTFLAGS_AB\"})"
python3 - "$tmp/runs" "$PAIRS" "$(IFS=,; echo "${claims[*]}")" "$LAYERS" "${workloads[@]}" <<'PY'
import json, statistics as st, sys

runs, pairs, layers, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[4] == "1", sys.argv[5:]
claims = {tuple(c.split(":", 1)) for c in sys.argv[3].split(",") if c}
benchmark = json.load(open("BENCHMARK.json"))
spec = benchmark["end_to_end"]
EXACT = ("sim_epoch_s", "final_train_loss", "test_mrr")


def load(w, side, i):
    """The run's result: the last line of its standard output."""
    try:
        with open(f"{runs}/{w}.{side}.{i}.txt") as f:
            result = json.loads(f.read().splitlines()[-1])
        return result if "metrics" in result else None
    except (IndexError, ValueError):
        return None


bad = False
print(f"{'workload':<17} {'metric':<22} {'base median':>14} {'head median':>14} "
      f"{'head/base':>9} {'base IQR':>8} {'wins':>5} {'bound':>5}  verdict")
for w in workloads:
    sides = {s: [load(w, s, i) for i in range(1, pairs + 1)] for s in ("base", "head")}
    done = [(b, h) for b, h in zip(sides["base"], sides["head"]) if b and h]
    bad |= len(done) < pairs
    for m in spec:
        name = m["name"]
        b = [x["metrics"][name]["value"] for x, _ in done]
        h = [y["metrics"][name]["value"] for _, y in done]
        if len(b) < 2:
            print(f"{w:<17} {name:<22} too few complete pairs ({len(b)})")
            continue
        bm, hm = st.median(b), st.median(h)
        q1, _, q3 = st.quantiles(b, n=4, method="inclusive")
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (hm - bm) / bm if bm else 0.0
        iqr = (q3 - q1) / bm if bm else 0.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, h))
        if iqr > m["bound"]:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "worse"
        else:
            verdict = "ok"
        bad |= verdict == "worse"
        ratio = hm / bm if bm else float("nan")
        print(f"{w:<17} {name:<22} {bm:>14.6g} {hm:>14.6g} {ratio:>9.4f} {iqr:>7.2%} "
              f"{wins:>2}/{len(b):<2} {m['bound']:>5}  {verdict}")
        if (w, name) in claims:
            claims.discard((w, name))
            gain = 10 * wins >= 9 * pairs and sign * (bm - hm) > q3 - q1
            bad |= not gain
            print(f"claim {w}:{name}: {'gain' if gain else 'no gain'} — head won {wins}/{pairs} pairs "
                  f"(needs 9/10), median gap {abs(hm - bm):.6g} against base IQR {q3 - q1:.6g}")
    every = [x for s in sides.values() for x in s if x]
    for name in EXACT:
        values = {repr(x["metrics"][name]["value"]) for x in every}
        bad |= len(values) != 1
        print(f"{w}: {name} bit-equal over {len(every)} runs: "
              f"{'yes ' + values.pop() if len(values) == 1 else 'NO ' + ', '.join(sorted(values))}")
    correct = sum(x["correct"] is True for x in every)
    failed = sum(x["failed"] for x in every)
    bad |= correct < 2 * pairs or failed > 0
    print(f"{w}: correct {correct}/{2 * pairs} runs, failed operations {failed}")
for w, name in sorted(claims):
    bad = True
    print(f"claim {w}:{name}: no such workload and end-to-end metric in this run")
if layers:
    print("\nper-layer metrics, one traced pass per side (--trace 1, same seed)")
    print(f"{'workload':<17} {'metric':<42} {'base':>14} {'head':>14} {'head/base':>9}  better")
    for w in workloads:
        b, h = load(w, "base", "trace"), load(w, "head", "trace")
        if not (b and h):
            bad = True
            print(f"{w:<17} traced pass missing ({'base' if not b else 'head'})")
            continue
        for m in benchmark["per_layer"]:
            name = m["name"]
            x, y = b["metrics"][name]["value"], h["metrics"][name]["value"]
            ratio = f"{y / x:>9.4f}" if x else f"{'-':>9}"
            print(f"{w:<17} {name:<42} {x:>14.6g} {y:>14.6g} {ratio}  {m['better']}")
sys.exit(1 if bad else 0)
PY
