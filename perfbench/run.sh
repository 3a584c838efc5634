#!/bin/sh
# Build the compiler and the benchmark harness from this checkout, then
# run one workload:
#   sh perfbench/run.sh --workload paper-matrix --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from a full source checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build in it.
dune build --root . --cache=disabled ./perfbench/pb.exe ./bin/impactc.exe 1>&2
exec ./_build/default/perfbench/pb.exe "$@"
