#!/usr/bin/env bash
# Build the hsched CLI and the benchmark from source in the current
# checkout, then run the benchmark with the given arguments, e.g.
#   bash bench/perf/run.sh --workload serve_churn --seed 3 --seconds 15 --trace 0
# The build stays inside the checkout: --root pins dune to this
# directory and the shared dune cache is not used.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/hsched_cli.exe bench/perf/perf.exe 1>&2
exec _build/default/bench/perf/perf.exe --hsched _build/default/bin/hsched_cli.exe "$@"
