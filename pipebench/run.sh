#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments:
#
#   bash pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build and the run
# leave behind goes under .bench_build/ there (Go build cache, temporary
# files, the binary, traces and the determinism records), so nothing is
# written outside the checkout. Without the repository's sources beside it
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/pipebench" && go build -trimpath -o "$out/bin/pipebench" .) >&2
exec "$out/bin/pipebench" "$@"
