#!/bin/sh
# Build the server and the benchmark from source, then run the benchmark
# from the root of the checkout with the arguments given.
set -e
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/aqv_net.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
