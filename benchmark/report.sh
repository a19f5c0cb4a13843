#!/usr/bin/env bash
# Records a full report: every workload, untraced and traced, RUNS times,
# each as its own invocation of the benchmark command (a fresh process, as
# the regression gate runs it). Compare two reports with
#   bash benchmark/run.sh -compare A.json B.json
# usage: bash benchmark/report.sh OUT.json [RUNS=3] [SEED=11] [SECONDS=18]
set -euo pipefail
out=${1:?usage: report.sh OUT.json [RUNS] [SEED] [SECONDS]}
runs=${2:-3} seed=${3:-11} seconds=${4:-18}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
rm -f "$out"
for ((r = 1; r <= runs; r++)); do
  for w in pingpong_small pingpong_bulk fwd_bulk llm_lossy async_10k; do
    for t in 0 1; do
      echo "run $r/$runs: $w trace=$t" >&2
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" -record "$out" >/dev/null
    done
  done
done
