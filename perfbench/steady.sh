#!/bin/sh
# Run each workload once per seed and keep every run's stdout under
# OUT_DIR, one file per run, for `run.sh summary` and `run.sh compare`.
#
#   perfbench/steady.sh OUT_DIR TRACE SEED...
#
# WORKLOADS (default: all three) and RUN_SECONDS (default 15) override the
# workloads run and the measured window.
set -e
cd "$(dirname "$0")/.."
out=$1 trace=$2
shift 2
mkdir -p "$out"
for w in ${WORKLOADS:-read-hot read-cold write-mix}; do
  for seed in "$@"; do
    f="$out/$w-seed$seed-trace$trace.out"
    if perfbench/run.sh --workload "$w" --seed "$seed" --seconds "${RUN_SECONDS:-15}" \
         --trace "$trace" > "$f"; then
      echo "$w seed $seed: ok"
    else
      echo "$w seed $seed: FAILED (exit $?)"
    fi
  done
done
