#!/bin/sh
# Build the end-to-end benchmark from source, then run it with the given
# arguments.  From anywhere in a checkout:
#
#   sh bench/e2e/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the run's
# JSON result.
set -e
cd "$(dirname "$0")/../.."
dune build --root . ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
