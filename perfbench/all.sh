#!/bin/sh
# Run every benchmark workload once and print its metrics by name with
# their units; each run checks its workload's outputs.
#
#   sh perfbench/all.sh [seed] [seconds] [trace]
#
# Run from the repository root. Stops at the first run that exits
# non-zero.
set -e
for workload in paper_fleet scenario_week cells_city paper_sweep; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-0}" --seconds "${2:-15}" --trace "${3:-0}"
done
