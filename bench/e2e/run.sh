#!/usr/bin/env bash
# Build the mvkv server and this benchmark from source, then run the
# benchmark with the given arguments (see README.md in this directory).
# Build output goes to stderr, so the result line stays last on stdout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/mvkv.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
