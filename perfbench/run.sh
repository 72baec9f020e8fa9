#!/usr/bin/env bash
# Build the benchmark and prep_cli from source, then run the benchmark
# with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload durable-update --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/perfbench.exe ./bin/prep_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
