#!/usr/bin/env bash
# Print every end-to-end metric, with its unit, for each workload.
#   bash bench/run_all.sh [seed] [seconds] [trace]
# With trace=1 it prints the per-layer metrics of the traced run instead.
set -euo pipefail
cd "$(dirname "$0")/.."
for w in drifter car1-walk mask-ar1 linear-beta; do
  python3 bench/run.py --workload "$w" --seed "${1:-1}" --seconds "${2:-25}" \
    --trace "${3:-0}" | grep -v -e '^machine ' -e '^{'
done
