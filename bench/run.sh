#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from this
# checkout and execs it with the driver's arguments; the harness in turn
# builds the real cepserved. Everything the toolchain and the run write
# (build cache, temp and state dirs, binaries, toolchain telemetry) is
# pointed under <checkout>/.bench_build so nothing outside the checkout is
# touched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/cepshed-bench" .) >&2
exec "$out/bin/cepshed-bench" "$@"
