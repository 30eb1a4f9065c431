#!/usr/bin/env bash
# Regenerate every figure/table of the paper and store the outputs
# under results/ (raw JSON) and results/logs/ (printed series).
# Takes ~10–20 minutes on a laptop. See EXPERIMENTS.md for the
# committed outputs and the scaling knobs.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results/logs

run() {
    local name="$1"; shift
    echo "=== $name ==="
    cargo run --release -p mlfs-bench --bin "$name" -- "$@" | tee "results/logs/$name.txt"
}

run fig4 --full --json results
run fig5 --xs 0.5,1 --scale 0.02 --tf 80 --json results   # add 2,3,4 (or --full) on beefier hardware
run makespan --xs 0.25,0.5,1,2
run fig6 --xs 0.5,1,2
run fig7 --xs 0.5,1,2
run fig8 --xs 0.5,1,2
run fig9 --xs 0.5,1,2
run ablations --study progress  | tee results/logs/ablation-progress.txt
run ablations --study topology  | tee results/logs/ablation-topology.txt
run ablations --study params    | tee results/logs/ablation-params.txt
run ablations --study stragglers | tee results/logs/ablation-stragglers.txt

echo "All results under results/"
