#!/usr/bin/env bash
# Public functions nothing else calls: every `pub fn` / `pub(crate) fn` in
# first-party crates/*/src and src whose name appears, as a word, in no
# other first-party .rs file (crates, tests, examples, benchmark/src; the
# shim-* crates are neither scanned nor counted as callers). Prints one
# `file name` line per orphan. The scan is textual: a name that is only
# reached through a trait or a macro, or that collides with a word used
# elsewhere, needs a look by hand.
#
# Usage: scripts/orphans.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates src tests examples benchmark/src -name '*.rs' \
  -not -path '*/target/*' -not -path 'crates/shim-*' | sort)
for f in $(find crates/*/src src -name '*.rs' -not -path 'crates/shim-*' | sort); do
  { grep -oP '^\s*pub(\(crate\))? fn \K[a-z_0-9]+' "$f" || true; } | sort -u | while read -r fn; do
    grep -lw "$fn" "${files[@]}" | grep -qvx "$f" || echo "$f $fn"
  done
done
