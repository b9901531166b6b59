#!/usr/bin/env bash
# Run the whole benchmark twice on the same commit and hold the second
# result against the first with the bounds in BENCHMARK.json. Exit 1 if
# any metric of the second run is worse than its bound allows.
#
#   benchmark/check.sh            # full runs (untraced; several minutes)
#   benchmark/check.sh --quick    # smoke: exercises the plumbing only
#
# Wiring this into ci.sh is a later change (ci.sh is outside this
# package's paths).
set -euo pipefail
cd "$(dirname "$0")/.."

out=benchmark/out
run() { cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"; }

# Two different seeds: other inputs, same metric set, and the numbers
# must still agree within the bounds.
run --seed 1 --trace 0 "$@"
run --seed 2 --trace 0 "$@"
run --compare "$out/result-seed1.json" "$out/result-seed2.json"
