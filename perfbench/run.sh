#!/usr/bin/env bash
# Build the benchmark and the dphls CLI from source, then run one
# measurement:
#
#   bash perfbench/run.sh --workload short-reads|long-reads|serve-zipf \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

for f in dune-project bin/dphls.ml BENCHMARK.json perfbench/dune; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f not found; run from a full checkout of the repository root" >&2
    exit 2
  fi
done

# Build into DUNE_BUILD_DIR when it is set (dune's own default is
# _build), and run the binaries from that same directory. The shared
# cache stays out of the run.
b=${DUNE_BUILD_DIR:-_build}
export DUNE_CACHE=disabled
dune build --root . --build-dir "$b" ./perfbench/perfbench.exe ./bin/dphls.exe 1>&2

exec "$b/default/perfbench/perfbench.exe" \
  --dphls "$b/default/bin/dphls.exe" "$@"
