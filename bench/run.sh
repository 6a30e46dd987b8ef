#!/usr/bin/env bash
# Builds snowbench from the checkout this script sits in and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload cold_attack --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1            # every workload, untraced then traced
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binary, scratch
# files, traces and the run log (runs.ndjson) that `compare` reads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOWORK=off
# The benchmark module replaces snowbma with the checkout's root module,
# so the build fails when the program's sources are absent.
(cd "$here" && go build -o "$out/snowbench" ./cmd/snowbench)

exec "$out/snowbench" -out "$out" "$@"
