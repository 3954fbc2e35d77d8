#!/bin/sh
# figures_check.sh — gate the full figure suite: `gangsim all` must
# reproduce results_full.txt byte for byte, except for the
# "[all completed in …]" wall-clock trailer, which is left out of the diff.
# Run from the repository root: sh tools/figures_check.sh
set -eu
GO="${GO:-go}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$GO" run ./cmd/gangsim all > "$tmp/all.txt"
grep -v '^\[all completed in .*\]$' results_full.txt > "$tmp/want.txt"
grep -v '^\[all completed in .*\]$' "$tmp/all.txt" > "$tmp/got.txt"
diff -u "$tmp/want.txt" "$tmp/got.txt"
