#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument on. Run it from the root of a gangfm checkout:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
# Keep the Go toolchain's cache, config and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
