#!/usr/bin/env bash
# The benchmark's single command.
#
#   benchmark/run.sh                  every workload: metrics by name, unit, spread; output checks
#   benchmark/run.sh --traced         the same plus the traced run (per-layer metrics, span files)
#   benchmark/run.sh --smoke          1 repetition x 1 s of every workload, every check, < 20 s
#   benchmark/run.sh --out FILE       where the result file goes (default benchmark/out/result.json)
#   benchmark/run.sh compare A B      row per workload x metric; non-zero exit on a regression
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one workload; the last stdout line is the JSON result
#
# Builds the shipped server (`arlo`, from the repo root) and the harness
# (this package, its own workspace) into one target directory, then hands
# the arguments to the harness. Run from anywhere; it works from the repo
# root so relative paths (CARGO_TARGET_DIR, benchmark/out) resolve there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The server under test is built from the repository this directory sits
# in; without it there is nothing to measure.
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: $root is not the Arlo repository (no Cargo.toml, no crates/)" >&2
  exit 2
fi

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --bin arlo >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export ARLO_BIN="$CARGO_TARGET_DIR/release/arlo"
exec "$CARGO_TARGET_DIR/release/arlo-benchmark" "$@"
