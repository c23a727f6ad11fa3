#!/usr/bin/env bash
# Non-test lines of the serve crate, per file and in total: each file's
# lines before its first `#[cfg(test)]` (a file without one counts whole).
# Simplicity changes report their line delta from this count.
#
#   tools/serve_lines.sh            count crates/serve/src
#   tools/serve_lines.sh DIR        count the .rs files in DIR instead
set -euo pipefail

dir="${1:-$(dirname "${BASH_SOURCE[0]}")/../crates/serve/src}"
total=0
for file in "$dir"/*.rs; do
  lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%6d  %s\n' "$lines" "$(basename "$file")"
  total=$((total + lines))
done
printf '%6d  total\n' "$total"
