#!/usr/bin/env bash
# Pins the paper's outputs: builds the `crates/bench` binaries in release,
# runs every deterministic one, and writes one SHA-256 per binary over the
# JSON files it wrote and its stdout. The digests are then compared with the
# committed manifest, `results/PAPER_DIGESTS`; any difference, a binary
# missing from either side, or a binary that exits non-zero fails the check.
#
#   tools/paper_digests.sh            check against results/PAPER_DIGESTS
#   tools/paper_digests.sh --update   rewrite results/PAPER_DIGESTS
#
# A change that means to move a paper output regenerates the manifest in the
# same commit and says which digest moved and why. Every binary under
# crates/bench/src/bin is digested except the ones listed in EXCLUDED, whose
# outputs embed wall-clock readings of the host. The outputs land in
# target/paper_digests (a fixed relative path, so the `[wrote …]` lines in
# stdout are the same on every host).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

declare -A EXCLUDED=(
  [fig09_dispatch_overhead]="times each dispatch on the host clock"
  [tab02_ilp_time]="times the ILP and DP solves on the host clock"
  [dispatch_hotpath]="times each dispatch decision on the host clock"
  [ext_serve]="drives a live server over loopback and reports its wall-clock latency"
)
# `summary` reads the other binaries' JSON from the results directory, so it
# runs last; with the excluded binaries never run, it reads only digested
# outputs.
LAST=summary

manifest=results/PAPER_DIGESTS
out=target/paper_digests
target_dir="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline -p arlo-bench --bins

rm -rf "$out"
mkdir -p "$out"
bins=()
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  if [[ -n "${EXCLUDED[$bin]:-}" ]]; then
    echo "skip $bin: ${EXCLUDED[$bin]}"
  elif [[ "$bin" != "$LAST" ]]; then
    bins+=("$bin")
  fi
done
bins+=("$LAST")

for bin in "${bins[@]}"; do
  start=$SECONDS
  ARLO_RESULTS_DIR="$out" "$target_dir/release/$bin" >"$out/$bin.stdout"
  # The JSON files the binary wrote, in the order it reported them.
  mapfile -t written < <(sed -n 's/^\[wrote \(.*\)\]$/\1/p' "$out/$bin.stdout")
  digest=$(cat ${written[@]+"${written[@]}"} "$out/$bin.stdout" | sha256sum | cut -d' ' -f1)
  printf '%s  %s\n' "$digest" "$bin" >>"$out/PAPER_DIGESTS"
  echo "ran $bin ($((SECONDS - start)) s)"
done

if [[ "${1:-}" == "--update" ]]; then
  mkdir -p "$(dirname "$manifest")"
  cp "$out/PAPER_DIGESTS" "$manifest"
  echo "wrote $manifest (${#bins[@]} binaries)"
elif diff -u "$manifest" "$out/PAPER_DIGESTS"; then
  echo "paper digests match $manifest (${#bins[@]} binaries)"
else
  echo "paper digests differ from $manifest; outputs are in $out" >&2
  exit 1
fi
