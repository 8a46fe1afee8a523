#!/usr/bin/env bash
# Build gqlsh and the benchmark harness from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload ppi_cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the
# last line of stdout is the harness's JSON result. The dune cache is
# disabled so the build reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/gqlsh.exe ./perfbench/harness.exe 1>&2
exec ./_build/default/perfbench/harness.exe \
  --gqlsh ./_build/default/bin/gqlsh.exe "$@"
