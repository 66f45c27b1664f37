#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root:
#
#   bash perfledger/run.sh --workload sweep-synth --seed 1 --seconds 38 --trace 0
#   bash perfledger/run.sh compare <baseline-dir> [<candidate-dir>]
#
# Everything the build and the runs leave behind goes to $CARGO_TARGET_DIR
# (default .bench_build) under the current directory: the Go build cache,
# the binary, trace fixtures and span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfledger" .)
if [ "${1:-}" = compare ]; then
	exec "$out/perfledger" "$@"
fi
exec "$out/perfledger" -workdir "$out" "$@"
