#!/bin/sh
# Build the benchmark suite from source in this checkout, then run it
# with the given arguments. Build output goes to standard error, so the
# suite's own JSON result stays the last line of standard output.
set -e
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/suite.exe 1>&2
exec ./_build/default/benchmark/suite.exe "$@"
